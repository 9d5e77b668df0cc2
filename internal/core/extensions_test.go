package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"testing"

	"github.com/magellan-p2p/magellan/internal/graph"
	"github.com/magellan-p2p/magellan/internal/metrics"
	"github.com/magellan-p2p/magellan/internal/trace"
)

func TestAnalyzeExtensions(t *testing.T) {
	store, _ := scaledTrace(t)
	ext, err := AnalyzeExtensions(store, ExtensionsConfig{Seed: 1, BaselinePeers: 2000})
	if err != nil {
		t.Fatalf("AnalyzeExtensions: %v", err)
	}
	if ext.Dynamics == nil || ext.Structure == nil || len(ext.Bias) != 3 {
		t.Fatal("extension sections missing")
	}
	// The headline baseline contrast: legacy fits a power law well,
	// modern ultrapeers do not.
	if ext.LegacyFit.KS > 0.1 {
		t.Errorf("legacy baseline KS = %.3f, want small (power law fits)", ext.LegacyFit.KS)
	}
	if ext.ModernUltraFit.KS < 0.15 {
		t.Errorf("modern baseline KS = %.3f, want large (spiked)", ext.ModernUltraFit.KS)
	}
}

func TestAnalyzeExtensionsEmptyStore(t *testing.T) {
	if _, err := AnalyzeExtensions(trace.NewStore(0), ExtensionsConfig{}); err == nil {
		t.Error("empty store accepted")
	}
}

// TestAnalyzeExtensionsDigest pins every full-precision value
// AnalyzeExtensions produces on the seeded store — each series point,
// the edge-lifetime histogram, each bias row and both power-law fits —
// so a change to a threshold, a window or a baseline construction value
// moves the digest. Floats are hashed as exact hexadecimal, not as the
// rounded text the report prints.
func TestAnalyzeExtensionsDigest(t *testing.T) {
	store, _ := scaledTrace(t)
	ext, err := AnalyzeExtensions(store, ExtensionsConfig{Seed: 1, BaselinePeers: 2000})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	f := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	series := func(name string, s *metrics.Series) {
		fmt.Fprintf(&b, "%s %d\n", name, s.Len())
		for _, p := range s.Points() {
			fmt.Fprintf(&b, " %d %s\n", p.T.UnixNano(), f(p.V))
		}
	}
	fit := func(name string, pf graph.PowerLawFit) {
		fmt.Fprintf(&b, "%s %s %d %s %d\n", name, f(pf.Alpha), pf.Xmin, f(pf.KS), pf.TailN)
	}
	d := ext.Dynamics
	series("retention", d.PartnerRetention)
	series("persistence", d.PeerPersistence)
	fmt.Fprintf(&b, "lifetimes n=%d mean=%s\n", d.EdgeLifetimes.N(), f(d.MeanEdgeLifetime))
	for _, bin := range d.EdgeLifetimes.PDF() {
		fmt.Fprintf(&b, " %d %d\n", bin.Value, d.EdgeLifetimes.Count(bin.Value))
	}
	s := ext.Structure
	series("assortativity", s.Assortativity)
	series("inoutcorr", s.InOutCorr)
	series("maxcore", s.MaxCore)
	series("diameter", s.Diameter)
	for _, row := range ext.Bias {
		fmt.Fprintf(&b, "bias %d %d %s %d %s\n", row.WindowEpochs, row.Peers,
			f(row.MeanInDegree), row.MaxInDegree, f(row.PowerLawKS))
	}
	fit("legacy", ext.LegacyFit)
	fit("modern", ext.ModernUltraFit)

	const want = "821e27a73dfb4e93ee0139361dd0a38d76fa1cbcaecfc76a6ee7710bdf058502"
	sum := sha256.Sum256(b.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("extensions digest = %s, want %s", got, want)
	}
}
