package graph

import (
	"math"
	"math/rand"
	"testing"
)

func TestErdosRenyiShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := ErdosRenyiGM(300, 2500, rng)
	if g.N() != 300 {
		t.Errorf("N = %d, want 300", g.N())
	}
	if g.M() != 2500 {
		t.Errorf("M = %d, want exactly 2500", g.M())
	}
	for i := int32(0); i < int32(g.N()); i++ {
		for _, v := range g.Out(i) {
			if v == i {
				t.Fatal("self-loop in ER graph")
			}
		}
	}
}

func TestErdosRenyiCapsAtCompleteGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := ErdosRenyiGM(5, 100, rng)
	if g.M() != 20 {
		t.Errorf("M = %d, want 20 (complete directed graph on 5 nodes)", g.M())
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	a := ErdosRenyiGM(100, 500, rand.New(rand.NewSource(3)))
	b := ErdosRenyiGM(100, 500, rand.New(rand.NewSource(3)))
	for i := int32(0); i < int32(a.N()); i++ {
		ao, bo := a.Out(i), b.Out(i)
		if len(ao) != len(bo) {
			t.Fatalf("node %d out-degree differs", i)
		}
		for k := range ao {
			if ao[k] != bo[k] {
				t.Fatalf("node %d adjacency differs", i)
			}
		}
	}
}

// TestRandomScratchMatchesFresh measures one scratch's baselines over a
// run of graphs of different sizes and checks each (C, L) bit for bit
// against a fresh RandomBaseline with the same seed, and the RNG's next
// draw: a recycled dedup set, edge buffer or graph changes neither.
func TestRandomScratchMatchesFresh(t *testing.T) {
	var s RandomScratch
	for i, size := range []struct{ n, m int }{{200, 1500}, {30, 90}, {500, 6000}, {5, 100}, {80, 400}} {
		g := ErdosRenyiGM(size.n, size.m, rand.New(rand.NewSource(int64(i))))
		seed := int64(100 + i)
		gotRng, wantRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		gotC, gotL := s.Baseline(g, gotRng, 64)
		wantC, wantL := RandomBaseline(g, wantRng, 64)
		if math.Float64bits(gotC) != math.Float64bits(wantC) || math.Float64bits(gotL) != math.Float64bits(wantL) {
			t.Fatalf("graph %d (n=%d): scratch (C, L) = (%v, %v), fresh (%v, %v)", i, size.n, gotC, gotL, wantC, wantL)
		}
		if a, b := gotRng.Int63(), wantRng.Int63(); a != b {
			t.Fatalf("graph %d: next rng draw %d, fresh %d", i, a, b)
		}
	}
}

func TestErdosRenyiClusteringMatchesDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, m := 600, 6000
	g := ErdosRenyiGM(n, m, rng)
	_, _, und := g.MeanDegree()
	want := TheoreticalRandomClustering(n, und)
	got := g.ClusteringCoefficient()
	if got < want*0.6 || got > want*1.6 {
		t.Errorf("ER clustering %.5f vs theoretical %.5f; off by more than 60%%", got, want)
	}
}

func TestRandomBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := ErdosRenyiGM(300, 2400, rng)
	c, l := RandomBaseline(g, rand.New(rand.NewSource(6)), 0)
	if c <= 0 || c > 0.2 {
		t.Errorf("baseline clustering %.4f implausible for sparse ER", c)
	}
	if l < 1.5 || l > 6 {
		t.Errorf("baseline path length %.2f implausible", l)
	}
}

func TestTheoreticalFormulas(t *testing.T) {
	if c := TheoreticalRandomClustering(1001, 20); math.Abs(c-0.02) > 1e-12 {
		t.Errorf("theoretical C = %v, want 0.02", c)
	}
	if TheoreticalRandomClustering(1, 5) != 0 {
		t.Error("degenerate n did not return 0")
	}
	l := TheoreticalRandomPathLength(100000, 20)
	if l < 3.5 || l > 4.5 {
		t.Errorf("ln(1e5)/ln(20) = %v, want ≈ 3.84", l)
	}
	if TheoreticalRandomPathLength(10, 1) != 0 {
		t.Error("degenerate degree did not return 0")
	}
}

func TestFitPowerLawRecoversAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sample := SampleParetoDegrees(rng, 20000, 2.5, 5)
	fit := FitPowerLaw(sample, 5)
	if math.Abs(fit.Alpha-2.5) > 0.15 {
		t.Errorf("fitted α = %.3f, want 2.5 ± 0.15", fit.Alpha)
	}
	if fit.KS > 0.05 {
		t.Errorf("KS = %.3f for a true power-law sample, want small", fit.KS)
	}
	if fit.TailN != len(sample) {
		t.Errorf("TailN = %d, want %d", fit.TailN, len(sample))
	}
}

func TestFitPowerLawRejectsSpike(t *testing.T) {
	// A distribution spiked at one value — the shape the paper actually
	// observes for UUSee degrees — must fit a power law poorly.
	spike := make([]int, 5000)
	rng := rand.New(rand.NewSource(8))
	for i := range spike {
		spike[i] = 9 + rng.Intn(4) // tight spike around 10
	}
	fit := FitPowerLaw(spike, 1)
	if fit.KS < 0.2 {
		t.Errorf("KS = %.3f for spiked sample, want large (non-power-law)", fit.KS)
	}
}

func TestFitPowerLawEdgeCases(t *testing.T) {
	if fit := FitPowerLaw(nil, 1); fit.TailN != 0 || fit.Alpha != 0 {
		t.Errorf("empty fit = %+v, want zero", fit)
	}
	if fit := FitPowerLaw([]int{3, 4, 5}, 10); fit.TailN != 0 {
		t.Errorf("all-below-xmin fit TailN = %d, want 0", fit.TailN)
	}
	fit := FitPowerLaw([]int{5, 7, 9}, 0) // xmin clamped to 1
	if fit.Xmin != 1 {
		t.Errorf("xmin = %d, want clamped to 1", fit.Xmin)
	}
}
