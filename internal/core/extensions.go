package core

import (
	"github.com/magellan-p2p/magellan/internal/gnutella"
	"github.com/magellan-p2p/magellan/internal/graph"
	"github.com/magellan-p2p/magellan/internal/trace"
)

// Extensions bundles the beyond-the-paper analyses: topology dynamics,
// structural metrics, the crawl-speed bias study, and the Gnutella
// baseline contrast. cmd/magellan-report prints them with -extended.
type Extensions struct {
	Dynamics  *DynamicsResult
	Structure *StructureResult
	Bias      []SnapshotBias

	// Baseline degree-distribution verdicts: the legacy overlay fits a
	// power law, the modern two-tier one does not — and neither is
	// UUSee's supply-driven spike.
	LegacyFit      graph.PowerLawFit
	ModernUltraFit graph.PowerLawFit
}

// ExtensionsConfig tunes AnalyzeExtensions.
type ExtensionsConfig struct {
	// BaselinePeers sizes the generated Gnutella overlays (default
	// 8000).
	BaselinePeers int
	// Seed drives baseline generation.
	Seed int64
}

// AnalyzeExtensions runs every extension analysis over a store, with
// DefaultActiveThreshold as the active-partner cutoff. The crawl-bias
// study merges windows of 1, 6 and 18 epochs: an instant, one hour and
// three hours.
func AnalyzeExtensions(store *trace.Store, cfg ExtensionsConfig) (*Extensions, error) {
	if cfg.BaselinePeers <= 0 {
		cfg.BaselinePeers = 8000
	}

	dyn, err := AnalyzeDynamics(store)
	if err != nil {
		return nil, err
	}
	structure, err := AnalyzeStructure(store)
	if err != nil {
		return nil, err
	}
	bias, err := AnalyzeSnapshotBias(store, []int{1, 6, 18})
	if err != nil {
		return nil, err
	}

	legacy, err := gnutella.Build(gnutella.Config{Seed: cfg.Seed + 1, Peers: cfg.BaselinePeers, Gen: gnutella.Legacy})
	if err != nil {
		return nil, err
	}
	modern, err := gnutella.Build(gnutella.Config{Seed: cfg.Seed + 2, Peers: cfg.BaselinePeers, Gen: gnutella.Modern})
	if err != nil {
		return nil, err
	}

	return &Extensions{
		Dynamics:       dyn,
		Structure:      structure,
		Bias:           bias,
		LegacyFit:      graph.FitPowerLaw(legacy.UndirectedDegrees(), 4),
		ModernUltraFit: graph.FitPowerLaw(gnutella.UltrapeerDegrees(modern, gnutella.LeafLinks), 1),
	}, nil
}
