package core

import (
	"fmt"
	"math/rand"

	"github.com/magellan-p2p/magellan/internal/metrics"
	"github.com/magellan-p2p/magellan/internal/trace"
)

// StructureResult carries structural metrics of the stable-peer graph
// beyond the paper's figures: degree assortativity (how hubs attach),
// the node-level correlation between supplying and receiving roles
// (the quantity behind the paper's Sec. 4.4 remark that supplier and
// receiver sets are strongly correlated), and the graph degeneracy
// (maximum k-core — the depth of the densely connected backbone).
type StructureResult struct {
	Assortativity *metrics.Series
	InOutCorr     *metrics.Series
	MaxCore       *metrics.Series
	Diameter      *metrics.Series
}

// AnalyzeStructure computes StructureResult on the stable-peer graph at
// DefaultActiveThreshold, sampling epochs at a cadence that yields
// ≈ 100 computed points.
func AnalyzeStructure(store *trace.Store) (*StructureResult, error) {
	epochs := store.Epochs()
	if len(epochs) == 0 {
		return nil, fmt.Errorf("core: empty store")
	}
	everyN := max(len(epochs)/100, 1)
	res := &StructureResult{
		Assortativity: metrics.NewSeries(),
		InOutCorr:     metrics.NewSeries(),
		MaxCore:       metrics.NewSeries(),
		Diameter:      metrics.NewSeries(),
	}
	for i := 0; i < len(epochs); i += everyN {
		v := NewEpochView(store, epochs[i])
		if v.StableCount() < 10 {
			continue
		}
		g := v.StableGraph(DefaultActiveThreshold)
		rng := rand.New(rand.NewSource(epochs[i]))
		res.Assortativity.Add(v.Start, g.DegreeAssortativity())
		res.InOutCorr.Add(v.Start, g.InOutCorrelation())
		res.MaxCore.Add(v.Start, float64(g.MaxCore()))
		res.Diameter.Add(v.Start, float64(g.EstimateDiameter(rng, 2)))
	}
	return res, nil
}
