//magellan:hotpath
package graph

import (
	"slices"

	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/radix"
)

// packEdge encodes a directed edge as from<<32|to. Node indices are
// non-negative int32s, so unsigned comparison of packed edges orders by
// (from asc, to asc) — letting Build sort edges as plain integers with
// radix.Sort.
func packEdge(u, v int32) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// CSRBuilder builds Digraphs — the package's one graph builder —
// through reusable scratch buffers: the node-index map, the edge arrays
// and the degree counts survive a build and are recycled by the next
// Reset. BuildInto refills a caller-owned Digraph, so building one
// snapshot graph per epoch into the same Digraph allocates nothing once
// both have grown to the largest epoch. A fresh builder needs no Reset.
//
// Node numbering is fixed: nodes pre-registered by Reset come first in
// the given order, then nodes in order of registration by AddNode or
// AddEdge — the numbering of the plain map-based reference builder the
// tests compare against, so every graph is the same however it is
// built, which the pipeline's determinism contract requires. A caller
// that knows an edge's node indices adds it with AddIndexEdge and pays
// no address lookup for it.
//
// A CSRBuilder is not safe for concurrent use; the analysis pipeline
// keeps one per worker.
type CSRBuilder struct {
	idx   map[isp.Addr]int32
	ids   []isp.Addr
	edges []uint64

	scratch []uint64 // scratch: radix.Sort's ping-pong buffer
	deg     []int32  // scratch: Digraph.load's degree counts
}

// NewCSRBuilder returns an empty builder ready for Reset.
func NewCSRBuilder() *CSRBuilder {
	return &CSRBuilder{idx: make(map[isp.Addr]int32)}
}

// Reset clears the builder and pre-registers nodes 0..len(nodes)-1 in
// the given order. nodes must be duplicate-free (the pipeline passes the
// sorted reporter column of a sealed epoch).
func (b *CSRBuilder) Reset(nodes []isp.Addr) {
	clear(b.idx)
	b.ids = b.ids[:0]
	b.edges = b.edges[:0]
	for _, a := range nodes {
		b.idx[a] = int32(len(b.ids))
		b.ids = append(b.ids, a)
	}
}

// AddNode registers an isolated node.
func (b *CSRBuilder) AddNode(a isp.Addr) int32 {
	if i, ok := b.idx[a]; ok {
		return i
	}
	i := int32(len(b.ids))
	b.idx[a] = i
	b.ids = append(b.ids, a)
	return i
}

// AddEdge registers the directed edge from → to, adding the endpoints
// as needed. Self-loops are dropped, duplicates at Build time.
func (b *CSRBuilder) AddEdge(from, to isp.Addr) {
	if from == to {
		return
	}
	b.AddIndexEdge(b.AddNode(from), b.AddNode(to))
}

// AddIndexEdge registers the directed edge u → v between two nodes
// already registered by Reset or AddNode. Self-loops are dropped,
// duplicates at Build time.
func (b *CSRBuilder) AddIndexEdge(u, v int32) {
	if u == v {
		return
	}
	if len(b.edges) == cap(b.edges) {
		// Double: a builder starts empty every analysis pass, and
		// append's 1.25× steps for long slices would allocate about five
		// times the final buffer on the way up instead of about twice.
		b.edges = slices.Grow(b.edges, max(len(b.edges), 256))
	}
	b.edges = append(b.edges, packEdge(u, v))
}

// Build finalizes the graph into a fresh Digraph, which does not alias
// the builder: BuildInto(new(Digraph)).
func (b *CSRBuilder) Build() *Digraph { return b.BuildInto(new(Digraph)) }

// BuildInto finalizes the graph into g and returns g, leaving the
// builder's scratch ready for the next Reset. g's arrays are reused and
// every graph, cache and scratch it held before is overwritten: the
// result is valid until the next build into g. It does not alias the
// builder, so the builder may go on to build into other Digraphs.
func (b *CSRBuilder) BuildInto(g *Digraph) *Digraph {
	b.edges = radix.Sort(b.edges, &b.scratch)
	g.ids = append(g.ids[:0], b.ids...)
	return g.load(slices.Compact(b.edges), &b.deg)
}

// load makes g the graph over its ids with the given deduplicated packed
// edges, sorted by (from, to): it refills the adjacency in g's own arrays
// and drops the lazy caches: the index map, which pipelines rarely
// need, and the undirected view, whose arrays are kept. *deg is the
// caller's degree scratch, grown as needed.
func (g *Digraph) load(edges []uint64, deg *[]int32) *Digraph {
	n, m := len(g.ids), len(edges)
	g.m = m
	g.idx, g.undOK = nil, false

	*deg = resize(*deg, 2*n)
	clear(*deg)
	outDeg, inDeg := (*deg)[:n], (*deg)[n:]
	for _, e := range edges {
		outDeg[e>>32]++
		inDeg[uint32(e)]++
	}
	g.out = resize(g.out, n)
	g.in = resize(g.in, n)
	g.adj = resize(g.adj, 2*m)
	outFlat, inFlat := g.adj[:m], g.adj[m:]

	// Out lists: edges are sorted by (from, to), so one flat array cut
	// at the degree boundaries yields sorted adjacency.
	off := 0
	for i, d := range outDeg {
		g.out[i] = cut(outFlat, off, int(d))
		off += int(d)
	}
	for i, e := range edges {
		outFlat[i] = int32(uint32(e))
	}

	// In lists: cut a second flat array the same way, then scatter each
	// edge's source into its target's list. Edges arrive in source order,
	// so every list fills in ascending order with no second sort.
	off = 0
	for i, d := range inDeg {
		g.in[i] = cut(inFlat, off, int(d))
		inDeg[i] = int32(off) // from here on: node i's next free in-slot
		off += int(d)
	}
	for _, e := range edges {
		to := uint32(e)
		inFlat[inDeg[to]] = int32(e >> 32)
		inDeg[to]++
	}
	return g
}

// cut returns flat's d entries from off as one adjacency list, or nil
// for an empty one.
func cut(flat []int32, off, d int) []int32 {
	if d == 0 {
		return nil
	}
	return flat[off : off+d : off+d]
}

// KeepPrefix cuts g down, in place, to the subgraph induced by its first
// r nodes, and returns g. Adjacency lists are sorted, so each kept list
// is its own prefix below r: the cut moves no edge and allocates
// nothing. It is how a pipeline turns an epoch's active graph, whose
// nodes 0…r−1 are the reporters, into the stable graph. The graph g held
// before is gone: its arena now holds the prefix graph, and the
// undirected view and the address index are dropped with it.
func (g *Digraph) KeepPrefix(r int) *Digraph {
	if r < 0 || r > len(g.ids) {
		panic("graph: KeepPrefix outside the node range")
	}
	g.ids, g.out, g.in = g.ids[:r], g.out[:r], g.in[:r]
	m := 0
	for i := range g.out {
		g.out[i] = below(g.out[i], int32(r))
		g.in[i] = below(g.in[i], int32(r))
		m += len(g.out[i])
	}
	g.m = m
	g.idx, g.undOK = nil, false
	return g
}

// below returns the prefix of the sorted list s whose entries are below r.
func below(s []int32, r int32) []int32 {
	k, _ := slices.BinarySearch(s, r)
	return s[:k]
}

// InducedSubgraphInto keeps the nodes for which keep returns true and
// every edge between two kept nodes, built into dst, and returns dst —
// e.g. the stable peers of one ISP. keep is called once per node index,
// in order. Kept nodes keep their relative order, so the subgraph
// numbers them as g does, and each list, remapped through the ranks of
// the kept nodes, stays sorted: dst is filled directly, with no builder,
// address map or sort. dst must not be g. The graph dst held before is
// gone, as after a BuildInto.
func (g *Digraph) InducedSubgraphInto(dst *Digraph, keep func(i int32) bool) *Digraph {
	g.rank = resize(g.rank, len(g.ids))
	rank := g.rank
	n := int32(0)
	for i := range rank {
		rank[i] = -1
		if keep(int32(i)) {
			rank[i] = n
			n++
		}
	}
	m := 0
	for u, out := range g.out {
		if rank[u] < 0 {
			continue
		}
		for _, v := range out {
			if rank[v] >= 0 {
				m++
			}
		}
	}
	dst.ids = resize(dst.ids, int(n))
	dst.out = resize(dst.out, int(n))
	dst.in = resize(dst.in, int(n))
	dst.adj = resize(dst.adj, 2*m)
	dst.m = m
	dst.idx, dst.undOK = nil, false
	outOff, inOff := 0, m
	for u, r := range rank {
		if r < 0 {
			continue
		}
		dst.ids[r] = g.ids[u]
		dst.out[r], outOff = remap(dst.adj, outOff, g.out[u], rank)
		dst.in[r], inOff = remap(dst.adj, inOff, g.in[u], rank)
	}
	return dst
}

// remap writes the ranks of list's kept nodes to flat from off, and
// returns them as one adjacency list along with the next free offset.
func remap(flat []int32, off int, list, rank []int32) ([]int32, int) {
	start := off
	for _, v := range list {
		if r := rank[v]; r >= 0 {
			flat[off] = r
			off++
		}
	}
	return cut(flat, start, off-start), off
}
