package graph

import (
	"slices"

	"github.com/magellan-p2p/magellan/internal/isp"
)

// Builder accumulates nodes and edges for a Digraph through an address
// map and fresh arrays. Duplicate edges and self-loops are dropped at
// Build time. It is the plain reference the CSRBuilder tests compare
// against: both number nodes in order of registration.
type Builder struct {
	ids   []isp.Addr
	idx   map[isp.Addr]int32
	edges [][2]int32
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{idx: make(map[isp.Addr]int32)}
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
