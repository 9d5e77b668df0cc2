package core

import (
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/trace"
)

func TestAnalyzeDynamicsHandCrafted(t *testing.T) {
	// Two epochs. Peer 1 keeps partner 2, drops partner 3, gains 4.
	// Peer 2 reports in both epochs; peer 9 only in the first.
	e0 := _t0.Add(time.Minute)
	e1 := _t0.Add(11 * time.Minute)
	r1a := report(1, [3]uint32{2, 50, 50}, [3]uint32{3, 50, 50})
	r1a.Time = e0
	r2a := report(2, [3]uint32{1, 50, 50})
	r2a.Time = e0
	r9 := report(9, [3]uint32{1, 0, 0})
	r9.Time = e0
	r1b := report(1, [3]uint32{2, 50, 50}, [3]uint32{4, 50, 50})
	r1b.Time = e1
	r2b := report(2, [3]uint32{1, 50, 50})
	r2b.Time = e1
	s := storeWith(t, r1a, r2a, r9, r1b, r2b)

	res, err := AnalyzeDynamics(s)
	if err != nil {
		t.Fatalf("AnalyzeDynamics: %v", err)
	}

	// Retention: peer 1 kept 1 of 2, peer 2 kept 1 of 1, peer 9 gone →
	// mean (0.5 + 1) / 2 = 0.75.
	if res.PartnerRetention.Len() != 1 {
		t.Fatalf("retention points = %d, want 1", res.PartnerRetention.Len())
	}
	if got := res.PartnerRetention.At(0).V; got != 0.75 {
		t.Errorf("retention = %v, want 0.75", got)
	}

	// Persistence: 2 of 3 first-epoch reporters persist.
	if got := res.PeerPersistence.At(0).V; got < 0.66 || got > 0.67 {
		t.Errorf("persistence = %v, want 2/3", got)
	}

	// Edge lifetimes: the 1↔2 pair lives 2 epochs (both directions);
	// 1↔3 and 1↔4 live 1 epoch each.
	if res.EdgeLifetimes.Count(2) != 2 {
		t.Errorf("2-epoch edges = %d, want 2 (1→2 and 2→1)", res.EdgeLifetimes.Count(2))
	}
	if res.EdgeLifetimes.Count(1) != 4 {
		t.Errorf("1-epoch edges = %d, want 4 (1↔3, 1↔4)", res.EdgeLifetimes.Count(1))
	}
	if res.MeanEdgeLifetime <= 1 || res.MeanEdgeLifetime >= 2 {
		t.Errorf("mean lifetime = %v, want in (1, 2)", res.MeanEdgeLifetime)
	}
}

func TestAnalyzeDynamicsNeedsTwoEpochs(t *testing.T) {
	s := storeWith(t, report(1, [3]uint32{2, 50, 50}))
	if _, err := AnalyzeDynamics(s); err == nil {
		t.Error("single-epoch store accepted")
	}
}

func TestAnalyzeDynamicsOnSimTrace(t *testing.T) {
	store, _ := scaledTrace(t)
	res, err := AnalyzeDynamics(store)
	if err != nil {
		t.Fatalf("AnalyzeDynamics: %v", err)
	}
	ret := res.PartnerRetention.Mean()
	// Churn is fast (zapper-heavy sessions) but reporters are stable, so
	// retention must be meaningful yet well below 1.
	if ret < 0.2 || ret > 0.98 {
		t.Errorf("mean partner retention %.3f outside (0.2, 0.98)", ret)
	}
	per := res.PeerPersistence.Mean()
	if per < 0.5 || per > 0.99 {
		t.Errorf("mean peer persistence %.3f outside (0.5, 0.99) — reporters should mostly persist", per)
	}
	if res.MeanEdgeLifetime < 1 {
		t.Errorf("mean edge lifetime %.2f < 1 epoch", res.MeanEdgeLifetime)
	}
	if res.EdgeLifetimes.N() == 0 {
		t.Error("no edge lifetimes recorded")
	}
}

func TestAnalyzeSnapshotBias(t *testing.T) {
	store, _ := scaledTrace(t)
	biases, err := AnalyzeSnapshotBias(store, []int{1, 3, 6})
	if err != nil {
		t.Fatalf("AnalyzeSnapshotBias: %v", err)
	}
	if len(biases) != 3 {
		t.Fatalf("results = %d, want 3", len(biases))
	}
	// The Stutzbach distortion: slower crawls (wider windows) inflate
	// apparent degrees monotonically.
	for i := 1; i < len(biases); i++ {
		if biases[i].MeanInDegree < biases[i-1].MeanInDegree {
			t.Errorf("window %d mean indegree %.2f below window %d's %.2f — merging should inflate",
				biases[i].WindowEpochs, biases[i].MeanInDegree,
				biases[i-1].WindowEpochs, biases[i-1].MeanInDegree)
		}
		if biases[i].MaxInDegree < biases[i-1].MaxInDegree {
			t.Errorf("max indegree shrank with a wider window")
		}
	}
	if biases[0].Peers == 0 {
		t.Error("no peers in the instant snapshot")
	}
	if d := biases[2].WindowDuration(store.Interval()); d != 6*store.Interval() {
		t.Errorf("WindowDuration = %v", d)
	}
}

func TestAnalyzeSnapshotBiasValidation(t *testing.T) {
	store, _ := scaledTrace(t)
	if _, err := AnalyzeSnapshotBias(store, []int{0}); err == nil {
		t.Error("window 0 accepted")
	}
	if _, err := AnalyzeSnapshotBias(trace.NewStore(0), []int{1}); err == nil {
		t.Error("empty store accepted")
	}
}

func TestAnalyzeStructureOnSimTrace(t *testing.T) {
	store, _ := scaledTrace(t)
	res, err := AnalyzeStructure(store)
	if err != nil {
		t.Fatalf("AnalyzeStructure: %v", err)
	}
	if res.Assortativity.Len() == 0 {
		t.Fatal("no structure points")
	}
	for _, pt := range res.Assortativity.Points() {
		if pt.V < -1 || pt.V > 1 {
			t.Fatalf("assortativity %v outside [-1, 1]", pt.V)
		}
	}
	// Suppliers are also receivers in a mesh: in/out roles must be
	// positively correlated, the paper's Sec. 4.4 observation.
	if c := res.InOutCorr.Mean(); c <= 0 {
		t.Errorf("mean in/out correlation %.3f, want positive", c)
	}
	if res.MaxCore.Mean() < 2 {
		t.Errorf("mean max core %.1f implausibly low for a streaming mesh", res.MaxCore.Mean())
	}
	if res.Diameter.Mean() < 1 {
		t.Errorf("mean diameter %.1f < 1", res.Diameter.Mean())
	}
}

func TestAnalyzeStructureEmpty(t *testing.T) {
	if _, err := AnalyzeStructure(trace.NewStore(0)); err == nil {
		t.Error("empty store accepted")
	}
}
