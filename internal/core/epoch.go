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
		Start:   ix.EpochStart(epoch),
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
	return v.ActiveGraphInto(graph.NewCSRBuilder(), threshold)
}

// ActiveGraphInto is ActiveGraph through a caller-provided builder whose
// scratch buffers are reused across epochs.
func (v EpochView) ActiveGraphInto(b *graph.CSRBuilder, threshold uint32) *graph.Digraph {
	b.Reset(v.addrs)
	v.ActiveEdges(threshold, func(from, to isp.Addr) { b.AddEdge(from, to) })
	return b.Build()
}

// StableGraph builds the directed graph induced on stable peers: "only
// including the stable peers and the active links among them"
// (Sec. 4.3). This is the graph of the small-world analysis.
func (v EpochView) StableGraph(threshold uint32) *graph.Digraph {
	return v.StableGraphInto(graph.NewCSRBuilder(), threshold)
}

// StableGraphInto is StableGraph through a caller-provided builder whose
// scratch buffers are reused across epochs.
func (v EpochView) StableGraphInto(b *graph.CSRBuilder, threshold uint32) *graph.Digraph {
	b.Reset(v.addrs)
	// After Reset the builder contains exactly the stable peers, and
	// edges between two stable peers never register new nodes, so
	// membership doubles as the stable-peer filter.
	v.ActiveEdges(threshold, func(from, to isp.Addr) {
		if b.Contains(from) && b.Contains(to) {
			b.AddEdge(from, to)
		}
	})
	return b.Build()
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
