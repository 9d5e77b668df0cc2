package gnutella

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"github.com/magellan-p2p/magellan/internal/graph"
	"github.com/magellan-p2p/magellan/internal/metrics"
)

func TestConfigValidation(t *testing.T) {
	if _, err := Build(Config{Peers: 5}); err == nil {
		t.Error("tiny overlay accepted")
	}
	if _, err := Build(Config{Peers: 100, Gen: Generation(99)}); err == nil {
		t.Error("unknown generation accepted")
	}
}

func TestLegacyPowerLawDegrees(t *testing.T) {
	g, err := Build(Config{Seed: 1, Peers: 8000, Gen: Legacy})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.N() != 8000 {
		t.Errorf("N = %d, want 8000", g.N())
	}
	degrees := g.UndirectedDegrees()
	fit := graph.FitPowerLaw(degrees, 4)
	// Preferential attachment yields a power law with α ≈ 3 and a good
	// KS fit — the distribution early Gnutella studies reported.
	if fit.Alpha < 2 || fit.Alpha > 4 {
		t.Errorf("legacy α = %.2f, want ≈ 3", fit.Alpha)
	}
	if fit.KS > 0.1 {
		t.Errorf("legacy KS = %.3f; power law should fit well", fit.KS)
	}
	// Heavy tail: the max degree dwarfs the median.
	h := metrics.NewHistogram(degrees)
	if h.Max() < 10*h.Mode() {
		t.Errorf("max degree %d not ≫ mode %d; tail too light", h.Max(), h.Mode())
	}
}

func TestModernSpikedDegrees(t *testing.T) {
	g, err := Build(Config{Seed: 2, Peers: 8000, Gen: Modern})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}

	// Leaves spike at LeafLinks.
	all := metrics.NewHistogram(g.UndirectedDegrees())
	if all.Mode() != LeafLinks {
		t.Errorf("overall mode = %d, want the leaf spike at %d", all.Mode(), LeafLinks)
	}

	// Ultrapeers spike near the connection target, and a power law fits
	// their distribution poorly — Stutzbach's correction to the early
	// studies.
	ultra := metrics.NewHistogram(UltrapeerDegrees(g, LeafLinks))
	if ultra.N() == 0 {
		t.Fatal("no ultrapeers found")
	}
	mode := ultra.Mode()
	if mode < _ultraTarget-5 || mode > _ultraTarget+25 {
		t.Errorf("ultrapeer mode = %d, want near target %d", mode, _ultraTarget)
	}
	fit := graph.FitPowerLaw(ultra.Values(), 1)
	if fit.KS < 0.15 {
		t.Errorf("modern ultrapeer KS = %.3f; spiked distribution should reject a power law", fit.KS)
	}
}

func TestModernTwoTierStructure(t *testing.T) {
	g, err := Build(Config{Seed: 3, Peers: 2000, Gen: Modern})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	leaves := 0
	for i := 0; i < g.N(); i++ {
		if g.UndirectedDegree(int32(i)) <= LeafLinks {
			leaves++
		}
	}
	frac := float64(leaves) / float64(g.N())
	if frac < 0.7 {
		t.Errorf("leaf fraction = %.2f, want ≈ 0.85", frac)
	}
	// The overlay must be usable: connected at its core.
	lc := g.LargestComponent()
	if float64(lc.N()) < 0.95*float64(g.N()) {
		t.Errorf("largest component %d of %d; overlay fragmented", lc.N(), g.N())
	}
}

func TestBuildDeterministic(t *testing.T) {
	for _, gen := range []Generation{Legacy, Modern} {
		a, err := Build(Config{Seed: 7, Peers: 500, Gen: gen})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(Config{Seed: 7, Peers: 500, Gen: gen})
		if err != nil {
			t.Fatal(err)
		}
		if a.M() != b.M() || a.N() != b.N() {
			t.Errorf("gen %d not deterministic: (%d,%d) vs (%d,%d)", gen, a.N(), a.M(), b.N(), b.M())
		}
	}
}

func TestSymmetricEdges(t *testing.T) {
	g, err := Build(Config{Seed: 4, Peers: 300, Gen: Modern})
	if err != nil {
		t.Fatal(err)
	}
	// Every Gnutella connection is a symmetric TCP link.
	if r := g.Reciprocity(); r != 1 {
		t.Errorf("reciprocity = %v, want 1 (symmetric links)", r)
	}
}

// TestBuildDigests pins the exact edge lists Build produces for both
// generations at the default construction values: a change to a link
// count, the ultrapeer share or the connection target moves a digest.
func TestBuildDigests(t *testing.T) {
	for _, tc := range []struct {
		gen  Generation
		want string
	}{
		{Legacy, "44a330f24a6d56fa261c0ce4f9ef38aba4aa3ea5a336142139cad8fb421c9ff8"},
		{Modern, "e91aafc4d1b0e0945304b3e2d0c0c6e673165c6c9c0ce2c8a8054ffb29a112c7"},
	} {
		g, err := Build(Config{Seed: 1, Peers: 8000, Gen: tc.gen})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf [8]byte
		for i := int32(0); i < int32(g.N()); i++ {
			for _, j := range g.Out(i) {
				binary.LittleEndian.PutUint32(buf[:4], uint32(g.Addr(i)))
				binary.LittleEndian.PutUint32(buf[4:], uint32(g.Addr(j)))
				h.Write(buf[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("generation %d: edge-list sha256 = %s, want %s", tc.gen, got, tc.want)
		}
	}
}
