// Package core is the Magellan analysis pipeline — the paper's primary
// contribution. It consumes trace-server reports (epoch-bucketed
// 10-minute snapshots, Sec. 3.2) and produces every figure of the
// evaluation: overlay scale and daily distinct users (Fig. 1), ISP
// population shares (Fig. 2), streaming quality (Fig. 3), degree
// distributions and their evolution (Figs. 4–5), intra-ISP degree
// fractions (Fig. 6), small-world metrics against random-graph baselines
// (Fig. 7), and edge reciprocity (Fig. 8).
package core

import (
	"slices"
	"time"

	"github.com/magellan-p2p/magellan/internal/graph"
	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/trace"
)

// DefaultActiveThreshold is the paper's active-partner cutoff: a partner
// is an active supplier (receiver) when more than 10 segments were
// received from (sent to) it during the report window (Sec. 4.2).
const DefaultActiveThreshold = 10

// EpochView is one topology snapshot assembled from an epoch's reports:
// the paper's unit of analysis. Views over a sealed store are columnar
// slices shared with the trace.Index — assembling one allocates nothing
// and re-sorts nothing, so analyzers can open views per epoch (or per
// figure) for free. All returned slices are read-only.
type EpochView struct {
	Epoch int64
	Start time.Time

	reports []trace.Report // latest report per stable peer, sorted by Addr
	addrs   []isp.Addr     // addrs[i] == reports[i].Addr
	all     []isp.Addr     // every visible peer, sorted
}

// NewEpochView assembles the view for one epoch of a store, sealing the
// store first (a cached O(1) operation when the store has not changed
// since the last seal).
func NewEpochView(store *trace.Store, epoch int64) EpochView {
	return NewIndexedEpochView(store.Seal(), epoch)
}

// NewIndexedEpochView assembles the view for one epoch of a sealed
// index. It performs no allocation: the view's columns alias the index.
func NewIndexedEpochView(ix *trace.Index, epoch int64) EpochView {
	return EpochView{
		Epoch:   epoch,
		Start:   trace.EpochStart(epoch, ix.Interval()),
		reports: ix.Reports(epoch),
		addrs:   ix.Reporters(epoch),
		all:     ix.AllPeers(epoch),
	}
}

// StableCount returns the number of stable (reporting) peers.
func (v EpochView) StableCount() int { return len(v.reports) }

// Reporters returns the reporting addresses in ascending order, aligned
// with Reports. All pipeline iteration goes through this so that
// floating-point accumulation and graph node numbering are deterministic.
func (v EpochView) Reporters() []isp.Addr { return v.addrs }

// Reports returns each stable peer's latest report of the epoch, sorted
// by address (aligned with Reporters).
func (v EpochView) Reports() []trace.Report { return v.reports }

// Report returns the latest report of one peer, if it reported.
func (v EpochView) Report(a isp.Addr) (trace.Report, bool) {
	i, ok := slices.BinarySearch(v.addrs, a)
	if !ok {
		return trace.Report{}, false
	}
	return v.reports[i], true
}

// IsStable reports whether the address reported during the epoch.
func (v EpochView) IsStable(a isp.Addr) bool {
	_, ok := slices.BinarySearch(v.addrs, a)
	return ok
}

// AllPeers returns every address visible in the snapshot, sorted:
// reporters plus everyone on their partner lists. This is the paper's
// "total peers" population — transient peers appear in the partner lists
// of reporters with high probability.
func (v EpochView) AllPeers() []isp.Addr { return v.all }

// ActiveEdges invokes add for every directed active edge the snapshot
// witnesses: supplier → consumer for every partner transfer above the
// threshold. Both endpoints of an edge may be transient; at least one is
// a reporter. Edges are visited in reporter order, so graph construction
// is deterministic.
func (v EpochView) ActiveEdges(threshold uint32, add func(from, to isp.Addr)) {
	for i := range v.reports {
		rep := &v.reports[i]
		for _, p := range rep.Partners {
			if p.RecvSeg > threshold {
				add(p.Addr, rep.Addr) // partner supplied this peer
			}
			if p.SentSeg > threshold {
				add(rep.Addr, p.Addr) // this peer supplied the partner
			}
		}
	}
}

// ActiveGraph builds the directed graph of all active links the snapshot
// witnesses, over all peers (reporters and transients). Every reporter is
// present even when isolated. This is the graph of the reciprocity
// analysis (Sec. 4.4).
func (v EpochView) ActiveGraph(threshold uint32) *graph.Digraph {
	return v.activeGraphInto(graph.NewCSRBuilder(), new(graph.Digraph), threshold, nil)
}

// activeGraphInto is ActiveGraph built into g through b, which both keep
// their buffers across epochs; the graph is valid until the next build
// into g or cut of it. Unless ends is nil, it also sets *ends, reusing
// its array, to the node of each active partner entry in scan order
// (reporter order, then partner order), so a caller that scans those
// entries again reads each one's node instead of resolving its address
// a second time.
//
// Reset numbers the sorted reporters 0…R−1, so an edge's reporter end is
// its row index and only the partner end costs an address resolution,
// one per active entry. The partner is registered at its first active
// entry, as ActiveEdges feeding AddEdge would register it: nodes are
// numbered reporters first, then in order of first appearance. A partner
// entry naming its own reporter resolves to the reporter and adds no
// edge.
func (v EpochView) activeGraphInto(b *graph.CSRBuilder, g *graph.Digraph, threshold uint32, ends *[]int32) *graph.Digraph {
	b.Reset(v.addrs)
	var col []int32
	if ends != nil {
		col = (*ends)[:0]
	}
	for i := range v.reports {
		rep := &v.reports[i]
		self := int32(i)
		for _, p := range rep.Partners {
			supplied, received := p.RecvSeg > threshold, p.SentSeg > threshold
			if !supplied && !received {
				continue
			}
			j := self
			if p.Addr != rep.Addr {
				j = b.AddNode(p.Addr)
			}
			if ends != nil {
				col = append(col, j)
			}
			if supplied {
				b.AddIndexEdge(j, self) // partner supplied this peer
			}
			if received {
				b.AddIndexEdge(self, j) // this peer supplied the partner
			}
		}
	}
	if ends != nil {
		*ends = col
	}
	return b.BuildInto(g)
}

// StableGraph builds the directed graph induced on stable peers: "only
// including the stable peers and the active links among them"
// (Sec. 4.3). This is the graph of the small-world analysis. The active
// graph numbers the reporters first and keeps sorted lists, so the
// stable graph is its reporter prefix.
func (v EpochView) StableGraph(threshold uint32) *graph.Digraph {
	return v.ActiveGraph(threshold).KeepPrefix(v.StableCount())
}

// PeerDegrees summarizes one stable peer's partner list: total partners,
// active indegree (supplying partners) and active outdegree (receiving
// partners), the Sec. 4.2 definitions. A partner that both supplies and
// receives counts in both degrees.
type PeerDegrees struct {
	Partners int
	In       int
	Out      int
}

// Degrees computes PeerDegrees for a report.
func Degrees(rep *trace.Report, threshold uint32) PeerDegrees {
	d := PeerDegrees{Partners: len(rep.Partners)}
	for _, p := range rep.Partners {
		if p.RecvSeg > threshold {
			d.In++
		}
		if p.SentSeg > threshold {
			d.Out++
		}
	}
	return d
}
