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

// CSRBuilder builds Digraphs through reusable scratch buffers — the
// node-index map and the edge arrays survive Build and are recycled by
// the next Reset, so constructing one snapshot graph per epoch costs a
// handful of allocations (the immutable arrays the Digraph itself
// retains) instead of re-growing maps and edge lists from scratch.
//
// Node numbering matches Builder exactly: nodes pre-registered by Reset
// come first in the given order, then endpoints in order of first
// appearance in AddEdge — so graphs built either way are identical,
// which the pipeline's determinism contract requires.
//
// A CSRBuilder is not safe for concurrent use; the analysis pipeline
// keeps one per worker.
type CSRBuilder struct {
	idx   map[isp.Addr]int32
	ids   []isp.Addr
	edges []uint64

	scratch []uint64 // scratch: radix.Sort's ping-pong buffer
	outDeg  []int32
	inDeg   []int32
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

// Contains reports whether the address is currently registered.
func (b *CSRBuilder) Contains(a isp.Addr) bool {
	_, ok := b.idx[a]
	return ok
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
	u, v := b.AddNode(from), b.AddNode(to)
	b.edges = append(b.edges, packEdge(u, v))
}

// Build finalizes the graph and leaves the builder's scratch ready for
// the next Reset. The returned Digraph owns fresh arrays and does not
// alias the builder.
func (b *CSRBuilder) Build() *Digraph {
	b.edges = radix.Sort(b.edges, &b.scratch)
	return buildCSR(slices.Clone(b.ids), slices.Compact(b.edges), b)
}

// buildCSR assembles a Digraph from ids and deduped packed edges sorted
// by (from, to), using sc's degree scratch (sc may own edges).
func buildCSR(ids []isp.Addr, edges []uint64, sc *CSRBuilder) *Digraph {
	n := len(ids)
	m := len(edges)

	if cap(sc.outDeg) < n {
		sc.outDeg = make([]int32, n)
		sc.inDeg = make([]int32, n)
	}
	outDeg := sc.outDeg[:n]
	inDeg := sc.inDeg[:n]
	for i := range outDeg {
		outDeg[i], inDeg[i] = 0, 0
	}
	for _, e := range edges {
		outDeg[e>>32]++
		inDeg[uint32(e)]++
	}

	g := &Digraph{
		ids: ids,
		out: make([][]int32, n),
		in:  make([][]int32, n),
		m:   m,
	}

	// Out lists: edges are sorted by (from, to), so one flat array cut
	// at the degree boundaries yields sorted adjacency.
	outFlat := make([]int32, m)
	off := 0
	for i := 0; i < n; i++ {
		d := int(outDeg[i])
		if d > 0 {
			g.out[i] = outFlat[off : off+d : off+d]
		}
		off += d
	}
	for i, e := range edges {
		outFlat[i] = int32(uint32(e))
	}

	// In lists: cut a second flat array the same way, then scatter each
	// edge's source into its target's list. Edges arrive in source order,
	// so every list fills in ascending order with no second sort.
	inFlat := make([]int32, m)
	off = 0
	for i := 0; i < n; i++ {
		d := int(inDeg[i])
		if d > 0 {
			g.in[i] = inFlat[off : off+d : off+d]
		}
		inDeg[i] = int32(off) // from here on: node i's next free in-slot
		off += d
	}
	for _, e := range edges {
		to := uint32(e)
		inFlat[inDeg[to]] = int32(e >> 32)
		inDeg[to]++
	}
	return g
}
