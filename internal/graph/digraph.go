// Package graph provides the directed-graph machinery behind the paper's
// topology analyses: compact snapshot graphs built from trace reports,
// degree statistics, the Watts–Strogatz clustering coefficient, BFS-based
// average path lengths, Erdős–Rényi baselines, and the edge-reciprocity
// metrics (the raw fraction r and the Garlaschelli–Loffredo ρ).
//
// Graphs are immutable once built; all algorithms are deterministic given
// a seeded random source.
package graph

import (
	"slices"

	"github.com/magellan-p2p/magellan/internal/isp"
)

// Digraph is an immutable directed graph over peer addresses, stored as
// sorted adjacency lists.
//
// The address→index map and the undirected adjacency are built lazily on
// first use (from a single goroutine; concurrent readers must touch them
// once before sharing the graph, as the analysis pipeline does).
type Digraph struct {
	ids []isp.Addr
	idx map[isp.Addr]int32 // lazily built by ensureIdx when nil
	out [][]int32
	in  [][]int32
	m   int

	und  [][]int32 // lazily built undirected adjacency (union of in/out)
	undM int       // undirected edge count, memoized with und
}

// Builder accumulates nodes and edges for a Digraph. Duplicate edges and
// self-loops are dropped at Build time.
type Builder struct {
	ids   []isp.Addr
	idx   map[isp.Addr]int32
	edges [][2]int32
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{idx: make(map[isp.Addr]int32)}
}

// NewBuilderSized returns an empty builder with capacity for the given
// node and edge counts, so subgraph extraction from a parent of known
// size does not re-grow its backing arrays.
func NewBuilderSized(nodes, edges int) *Builder {
	return &Builder{
		idx:   make(map[isp.Addr]int32, nodes),
		ids:   make([]isp.Addr, 0, nodes),
		edges: make([][2]int32, 0, edges),
	}
}

// AddNode registers an isolated node (a peer with no active links still
// belongs to the snapshot).
func (b *Builder) AddNode(a isp.Addr) int32 {
	if i, ok := b.idx[a]; ok {
		return i
	}
	i := int32(len(b.ids))
	b.idx[a] = i
	b.ids = append(b.ids, a)
	return i
}

// AddEdge registers the directed edge from → to, adding the endpoints as
// needed.
func (b *Builder) AddEdge(from, to isp.Addr) {
	if from == to {
		return
	}
	u, v := b.AddNode(from), b.AddNode(to)
	b.edges = append(b.edges, [2]int32{u, v})
}

// Build finalizes the graph.
func (b *Builder) Build() *Digraph {
	g := &Digraph{
		ids: b.ids,
		idx: b.idx,
		out: make([][]int32, len(b.ids)),
		in:  make([][]int32, len(b.ids)),
	}
	slices.SortFunc(b.edges, func(x, y [2]int32) int {
		if x[0] != y[0] {
			return int(x[0]) - int(y[0])
		}
		return int(x[1]) - int(y[1])
	})
	var prev [2]int32 = [2]int32{-1, -1}
	for _, e := range b.edges {
		if e == prev {
			continue
		}
		prev = e
		g.out[e[0]] = append(g.out[e[0]], e[1])
		g.in[e[1]] = append(g.in[e[1]], e[0])
		g.m++
	}
	for i := range g.in {
		slices.Sort(g.in[i])
	}
	return g
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
	if g.und != nil {
		return
	}
	// One flat array backs every list: a node's neighbours are at most
	// its in- plus out-degree, 2m in total, so the appends never grow it.
	flat := make([]int32, 0, 2*g.m)
	g.und = make([][]int32, len(g.ids))
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
	g.undM = len(flat) / 2
}

// InducedSubgraph keeps the nodes for which keep returns true and every
// edge between two kept nodes — e.g. the stable peers of one ISP.
func (g *Digraph) InducedSubgraph(keep func(isp.Addr) bool) *Digraph {
	kept := make([]bool, g.N())
	nKept := 0
	for i, a := range g.ids {
		if keep(a) {
			kept[i] = true
			nKept++
		}
	}
	b := NewBuilderSized(nKept, g.m)
	for i, a := range g.ids {
		if kept[i] {
			b.AddNode(a)
		}
	}
	for u := range g.out {
		if !kept[u] {
			continue
		}
		for _, v := range g.out[u] {
			if kept[v] {
				b.AddEdge(g.ids[u], g.ids[v])
			}
		}
	}
	return b.Build()
}

// EdgeSubgraph keeps the edges for which keep returns true, plus their
// incident nodes — e.g. "links among peers in the same ISP and their
// incident peers" (Sec. 4.4).
func (g *Digraph) EdgeSubgraph(keep func(from, to isp.Addr) bool) *Digraph {
	b := NewBuilderSized(g.N(), g.m)
	for u := range g.out {
		for _, v := range g.out[u] {
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
	g.ensureIdx()
	return g.InducedSubgraph(func(a isp.Addr) bool {
		i := g.idx[a]
		return comp[i] == best
	})
}
