// Package graph provides the directed-graph machinery behind the paper's
// topology analyses: compact snapshot graphs built from trace reports,
// degree statistics, the Watts–Strogatz clustering coefficient, BFS-based
// average path lengths, Erdős–Rényi baselines, and the edge-reciprocity
// metrics (the raw fraction r and the Garlaschelli–Loffredo ρ).
//
// A built graph does not change until something is built into it again;
// all algorithms are deterministic given a seeded random source.
package graph

import (
	"slices"

	"github.com/magellan-p2p/magellan/internal/isp"
)

// Digraph is a directed graph over peer addresses, stored as sorted
// adjacency lists.
//
// A Digraph is also an arena. CSRBuilder.BuildInto, InducedSubgraphInto
// and the Erdős–Rényi draws of RandomScratch refill one in place,
// KeepPrefix cuts one down in place, and the metric kernels keep their
// scratch in it (clustering stamps, BFS words and sources, node marks
// and ranks), so analyzing one graph per epoch through the same Digraph
// allocates nothing once its arrays have grown. A graph built into a
// Digraph is valid until the next build into it or cut of it.
//
// The address→index map and the undirected adjacency are built lazily on
// first use. Those caches and the kernels' scratch are written by the
// methods that read them, so a Digraph is not safe for concurrent use.
type Digraph struct {
	ids []isp.Addr
	out [][]int32
	in  [][]int32
	adj []int32 // backs out (the first m entries) and in (the last m)
	m   int

	idx map[isp.Addr]int32 // lazily built by ensureIdx when nil

	und    [][]int32 // lazily built undirected adjacency (union of in/out)
	undAdj []int32   // backs und
	undM   int       // undirected edge count, memoized with und
	undOK  bool      // und and undM describe the current graph

	stamp   []int32  // ClusteringCoefficient's neighbour stamps
	sources []int32  // AveragePathLength's BFS sources
	words   []uint64 // AveragePathLength's seen/frontier/next words
	marks   []bool   // PartitionReciprocity's node marks
	rank    []int32  // InducedSubgraphInto's node ranks
}

// resize returns s with length n, reusing its array when it is large
// enough. The elements' values are unspecified. An array too short is
// replaced by one of capacity max(n, 2·cap(s)): a fresh arena gets
// exactly n, and one reused over ever larger graphs regrows O(log n)
// times.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// N returns the node count.
func (g *Digraph) N() int { return len(g.ids) }

// M returns the directed edge count.
func (g *Digraph) M() int { return g.m }

// Addr returns the address of node i.
func (g *Digraph) Addr(i int32) isp.Addr { return g.ids[i] }

// Index returns the node index of an address.
func (g *Digraph) Index(a isp.Addr) (int32, bool) {
	g.ensureIdx()
	i, ok := g.idx[a]
	return i, ok
}

// ensureIdx builds the address→index map on demand. Graphs from the
// CSRBuilder fast path skip it entirely unless an address lookup is
// actually needed.
func (g *Digraph) ensureIdx() {
	if g.idx == nil {
		g.idx = make(map[isp.Addr]int32, len(g.ids))
		for i, a := range g.ids {
			g.idx[a] = int32(i)
		}
	}
}

// Out returns node i's out-neighbours (sorted; not to be mutated).
func (g *Digraph) Out(i int32) []int32 { return g.out[i] }

// In returns node i's in-neighbours (sorted; not to be mutated).
func (g *Digraph) In(i int32) []int32 { return g.in[i] }

// OutDegree returns the number of active receiving partners of node i.
func (g *Digraph) OutDegree(i int32) int { return len(g.out[i]) }

// InDegree returns the number of active supplying partners of node i.
func (g *Digraph) InDegree(i int32) int { return len(g.in[i]) }

// HasEdge reports whether the directed edge u → v exists.
func (g *Digraph) HasEdge(u, v int32) bool {
	_, ok := slices.BinarySearch(g.out[u], v)
	return ok
}

// Undirected returns node i's neighbours ignoring direction (sorted,
// deduplicated; not to be mutated).
func (g *Digraph) Undirected(i int32) []int32 {
	g.buildUndirected()
	return g.und[i]
}

// UndirectedDegree returns the size of node i's undirected neighbourhood.
func (g *Digraph) UndirectedDegree(i int32) int {
	g.buildUndirected()
	return len(g.und[i])
}

// UndirectedM returns the number of undirected edges (each reciprocal
// pair counts once). The count is memoized alongside the undirected
// adjacency.
func (g *Digraph) UndirectedM() int {
	g.buildUndirected()
	return g.undM
}

func (g *Digraph) buildUndirected() {
	if g.undOK {
		return
	}
	// One flat array backs every list: a node's neighbours are at most
	// its in- plus out-degree, 2m in total, so the appends never grow it.
	flat := resize(g.undAdj, 2*g.m)[:0]
	g.und = resize(g.und, len(g.ids))
	for i := range g.ids {
		a, b := g.out[i], g.in[i]
		start := len(flat)
		x, y := 0, 0
		for x < len(a) && y < len(b) {
			switch {
			case a[x] < b[y]:
				flat = append(flat, a[x])
				x++
			case a[x] > b[y]:
				flat = append(flat, b[y])
				y++
			default:
				flat = append(flat, a[x])
				x++
				y++
			}
		}
		flat = append(flat, a[x:]...)
		flat = append(flat, b[y:]...)
		g.und[i] = flat[start:len(flat):len(flat)]
	}
	g.undAdj, g.undM, g.undOK = flat, len(flat)/2, true
}

// InducedSubgraph is InducedSubgraphInto a fresh Digraph.
func (g *Digraph) InducedSubgraph(keep func(i int32) bool) *Digraph {
	return g.InducedSubgraphInto(new(Digraph), keep)
}

// EdgeSubgraph keeps the edges for which keep returns true, plus their
// incident nodes — e.g. "links among peers in the same ISP and their
// incident peers" (Sec. 4.4).
func (g *Digraph) EdgeSubgraph(keep func(from, to isp.Addr) bool) *Digraph {
	b := NewCSRBuilder()
	for u, out := range g.out {
		for _, v := range out {
			if keep(g.ids[u], g.ids[v]) {
				b.AddEdge(g.ids[u], g.ids[v])
			}
		}
	}
	return b.Build()
}

// PartitionEdgeSubgraphs splits the graph's edges by pred in a single
// traversal: the first returned subgraph holds the edges (and incident
// nodes) for which pred is true, the second the rest. It is equivalent
// to — and replaces — two complementary EdgeSubgraph passes, evaluating
// pred once per edge instead of twice.
func (g *Digraph) PartitionEdgeSubgraphs(pred func(from, to isp.Addr) bool) (yes, no *Digraph) {
	yb := NewCSRBuilder()
	nb := NewCSRBuilder()
	return g.PartitionEdgeSubgraphsInto(yb, nb, pred)
}

// PartitionEdgeSubgraphsInto is PartitionEdgeSubgraphs through caller-
// provided builders, so a per-worker pipeline can reuse their scratch.
// Both builders are Reset first.
func (g *Digraph) PartitionEdgeSubgraphsInto(yb, nb *CSRBuilder, pred func(from, to isp.Addr) bool) (yes, no *Digraph) {
	yb.Reset(nil)
	nb.Reset(nil)
	for u := range g.out {
		for _, v := range g.out[u] {
			if pred(g.ids[u], g.ids[v]) {
				yb.AddEdge(g.ids[u], g.ids[v])
			} else {
				nb.AddEdge(g.ids[u], g.ids[v])
			}
		}
	}
	return yb.Build(), nb.Build()
}

// LargestComponent returns the subgraph induced by the largest
// weakly-connected component.
func (g *Digraph) LargestComponent() *Digraph {
	comp := make([]int32, g.N())
	for i := range comp {
		comp[i] = -1
	}
	var queue []int32
	best, bestSize := int32(-1), 0
	next := int32(0)
	for s := int32(0); s < int32(g.N()); s++ {
		if comp[s] >= 0 {
			continue
		}
		id := next
		next++
		size := 0
		comp[s] = id
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			size++
			for _, v := range g.Undirected(u) {
				if comp[v] < 0 {
					comp[v] = id
					queue = append(queue, v)
				}
			}
		}
		if size > bestSize {
			best, bestSize = id, size
		}
	}
	return g.InducedSubgraph(func(i int32) bool { return comp[i] == best })
}
