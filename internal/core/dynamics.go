//magellan:hotpath
package core

import (
	"fmt"
	"slices"
	"time"

	"github.com/magellan-p2p/magellan/internal/graph"
	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/metrics"
	"github.com/magellan-p2p/magellan/internal/trace"
)

// DynamicsResult extends the paper's evolutionary analysis with
// edge-level dynamics: how quickly partner lists turn over between
// consecutive reports, how long active links live, and how persistent
// the stable-peer population itself is. The paper motivates Magellan
// with the "time-varying internal characteristics" of the topology;
// these are the quantities a follow-up study would chart first.
type DynamicsResult struct {
	// PartnerRetention is, per epoch transition, the mean fraction of a
	// reporter's partners kept since its previous report.
	PartnerRetention *metrics.Series
	// PeerPersistence is the fraction of one epoch's stable peers still
	// reporting in the next epoch.
	PeerPersistence *metrics.Series
	// EdgeLifetimes is the distribution of active-link lifetimes,
	// measured in consecutive report epochs (censored by trace end).
	EdgeLifetimes *metrics.Histogram
	// MeanEdgeLifetime is the average lifetime in epochs.
	MeanEdgeLifetime float64
}

// AnalyzeDynamics computes DynamicsResult over a store, counting a
// partner active above DefaultActiveThreshold segments.
func AnalyzeDynamics(store *trace.Store) (*DynamicsResult, error) {
	epochs := store.Epochs()
	if len(epochs) < 2 {
		return nil, fmt.Errorf("core: dynamics need at least two epochs, have %d", len(epochs))
	}

	res := &DynamicsResult{
		PartnerRetention: metrics.NewSeries(),
		PeerPersistence:  metrics.NewSeries(),
		EdgeLifetimes:    metrics.NewHistogram(nil),
	}

	type edge struct{ from, to isp.Addr }
	prevPartners := make(map[isp.Addr]map[isp.Addr]struct{})
	liveEdges := make(map[edge]int) // active edge → consecutive epochs seen
	var prevReporters map[isp.Addr]struct{}

	var lifetimeSum, lifetimeN float64
	finish := func(e edge, life int) {
		res.EdgeLifetimes.Add(life)
		lifetimeSum += float64(life)
		lifetimeN++
		delete(liveEdges, e)
	}

	// cur and record are hoisted out of the epoch loop (one closure and
	// one map for the whole trace, cleared per epoch) so the per-tick
	// path allocates nothing for edge collection.
	cur := make(map[edge]struct{})
	record := func(from, to isp.Addr) {
		cur[edge{from, to}] = struct{}{}
	}

	for _, ep := range epochs {
		v := NewEpochView(store, ep)

		// Partner-list retention against each reporter's previous list.
		var retained, transitions float64
		reports := v.Reports()
		curPartners := make(map[isp.Addr]map[isp.Addr]struct{}, len(reports))
		for i := range reports {
			rep := &reports[i]
			addr := rep.Addr
			set := make(map[isp.Addr]struct{}, len(rep.Partners))
			for _, p := range rep.Partners {
				set[p.Addr] = struct{}{}
			}
			curPartners[addr] = set
			prev, ok := prevPartners[addr]
			if !ok || len(prev) == 0 {
				continue
			}
			kept := 0
			for p := range prev {
				if _, still := set[p]; still {
					kept++
				}
			}
			retained += float64(kept) / float64(len(prev))
			transitions++
		}
		if transitions > 0 {
			res.PartnerRetention.Add(v.Start, retained/transitions)
		}

		// Stable-peer persistence.
		if prevReporters != nil && len(prevReporters) > 0 {
			still := 0
			for addr := range prevReporters {
				if v.IsStable(addr) {
					still++
				}
			}
			res.PeerPersistence.Add(v.Start, float64(still)/float64(len(prevReporters)))
		}
		prevReporters = make(map[isp.Addr]struct{}, v.StableCount())
		for _, addr := range v.Reporters() {
			prevReporters[addr] = struct{}{}
		}
		prevPartners = curPartners

		// Active-edge lifetimes.
		clear(cur)
		v.ActiveEdges(DefaultActiveThreshold, record)
		for e := range cur {
			liveEdges[e]++
		}
		for e, life := range liveEdges {
			if _, alive := cur[e]; !alive {
				finish(e, life)
			}
		}
	}
	// Censored edges at trace end still count with their observed life.
	for e, life := range liveEdges {
		finish(e, life)
	}
	if lifetimeN > 0 {
		res.MeanEdgeLifetime = lifetimeSum / lifetimeN
	}
	return res, nil
}

// SnapshotBias quantifies the crawl-speed distortion Stutzbach et al.
// identified and the paper leans on (Sec. 2): merging several 10-minute
// epochs into one "slow crawl" snapshot superimposes topologies that
// never coexisted, inflating apparent degrees and dragging the
// distribution toward the spurious power laws early Gnutella studies
// reported. For each window size it reports the indegree mean, maximum,
// and the power-law KS distance of the merged snapshot.
type SnapshotBias struct {
	WindowEpochs int
	Peers        int
	MeanInDegree float64
	MaxInDegree  int
	PowerLawKS   float64
}

// AnalyzeSnapshotBias merges `window` consecutive epochs ending at the
// busiest epoch and measures the distorted degree distribution, counting
// a partner active above DefaultActiveThreshold segments. window must be
// ≥ 1.
func AnalyzeSnapshotBias(store *trace.Store, windows []int) ([]SnapshotBias, error) {
	epochs := store.Epochs()
	if len(epochs) == 0 {
		return nil, fmt.Errorf("core: empty store")
	}

	// Anchor at the epoch with the most reports.
	anchor := 0
	bestN := -1
	for i, ep := range epochs {
		if n := len(store.Snapshot(ep).Reports); n > bestN {
			anchor, bestN = i, n
		}
	}

	// Validate up front so the merge loop below stays allocation-free.
	if len(windows) > 0 {
		if w := slices.Min(windows); w < 1 {
			return nil, fmt.Errorf("core: bias window %d < 1", w)
		}
	}

	out := make([]SnapshotBias, 0, len(windows))
	for _, w := range windows {
		lo := anchor - w + 1
		if lo < 0 {
			lo = 0
		}
		// Merge: a peer's "partner set" is the union over the window —
		// what a crawler that needs w epochs to cover the overlay would
		// record.
		merged := make(map[isp.Addr]map[isp.Addr]uint32) // peer → partner → max recv
		for i := lo; i <= anchor; i++ {
			v := NewEpochView(store, epochs[i])
			reports := v.Reports()
			for j := range reports {
				rep := &reports[j]
				set, ok := merged[rep.Addr]
				if !ok {
					set = make(map[isp.Addr]uint32)
					merged[rep.Addr] = set
				}
				for _, p := range rep.Partners {
					if p.RecvSeg > set[p.Addr] {
						set[p.Addr] = p.RecvSeg
					}
				}
			}
		}
		hist := metrics.NewHistogram(nil)
		for _, partners := range merged {
			in := 0
			for _, recv := range partners {
				if recv > DefaultActiveThreshold {
					in++
				}
			}
			hist.Add(in)
		}
		fit := graph.FitPowerLaw(hist.Values(), 1)
		out = append(out, SnapshotBias{
			WindowEpochs: anchor - lo + 1,
			Peers:        hist.N(),
			MeanInDegree: hist.Mean(),
			MaxInDegree:  hist.Max(),
			PowerLawKS:   fit.KS,
		})
	}
	return out, nil
}

// Window duration helper for reports.
func (b SnapshotBias) WindowDuration(interval time.Duration) time.Duration {
	return time.Duration(b.WindowEpochs) * interval
}
