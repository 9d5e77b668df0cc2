package graph

import (
	"math/rand"
	"testing"

	"github.com/magellan-p2p/magellan/internal/isp"
)

// Property tests over random graphs: the structural invariants every
// analyzer implicitly relies on.

func randomGraphs(seed int64, n int) []*Digraph {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Digraph, n)
	for i := range out {
		nodes := 10 + rng.Intn(150)
		edges := rng.Intn(nodes * 4)
		out[i] = ErdosRenyiGM(nodes, edges, rng)
	}
	return out
}

func TestPropertyInducedSubgraphIsSubset(t *testing.T) {
	for _, g := range randomGraphs(1, 25) {
		sub := g.InducedSubgraph(func(i int32) bool { return g.Addr(i)%2 == 0 })
		if sub.N() > g.N() || sub.M() > g.M() {
			t.Fatalf("induced subgraph grew: (%d,%d) from (%d,%d)", sub.N(), sub.M(), g.N(), g.M())
		}
		// Every subgraph edge exists in the parent.
		for u := int32(0); u < int32(sub.N()); u++ {
			for _, v := range sub.Out(u) {
				pu, _ := g.Index(sub.Addr(u))
				pv, _ := g.Index(sub.Addr(v))
				if !g.HasEdge(pu, pv) {
					t.Fatal("induced subgraph invented an edge")
				}
			}
		}
	}
}

func TestPropertyEdgeSubgraphPartition(t *testing.T) {
	// Intra and inter edge subgraphs partition the edge set, as the
	// Fig. 8(B) analysis assumes.
	same := func(a, b isp.Addr) bool { return a%3 == b%3 }
	for _, g := range randomGraphs(2, 25) {
		intra := g.EdgeSubgraph(same)
		inter := g.EdgeSubgraph(func(a, b isp.Addr) bool { return !same(a, b) })
		if intra.M()+inter.M() != g.M() {
			t.Fatalf("edge partition broken: %d + %d != %d", intra.M(), inter.M(), g.M())
		}
	}
}

func TestPropertyLargestComponentBounds(t *testing.T) {
	for _, g := range randomGraphs(3, 25) {
		lc := g.LargestComponent()
		if lc.N() > g.N() || lc.M() > g.M() {
			t.Fatal("largest component larger than parent")
		}
		if g.M() > 0 && lc.N() < 2 {
			t.Fatal("graph with edges has a trivial largest component")
		}
		// The component is connected: every node reaches every other.
		if lc.N() >= 2 {
			if l := lc.AveragePathLength(nil, 0); l <= 0 {
				t.Fatal("largest component has unreachable pairs")
			}
		}
	}
}

func TestPropertyReciprocityOfUnion(t *testing.T) {
	// Adding every reverse edge makes any graph fully reciprocal.
	for _, g := range randomGraphs(4, 15) {
		b := NewBuilder()
		for u := int32(0); u < int32(g.N()); u++ {
			for _, v := range g.Out(u) {
				b.AddEdge(g.Addr(u), g.Addr(v))
				b.AddEdge(g.Addr(v), g.Addr(u))
			}
		}
		sym := b.Build()
		if sym.M() > 0 && sym.Reciprocity() != 1 {
			t.Fatalf("symmetrized graph reciprocity = %v, want 1", sym.Reciprocity())
		}
	}
}

func TestPropertyDegreeHistogramMass(t *testing.T) {
	for _, g := range randomGraphs(5, 25) {
		var sumUnd int
		for _, d := range g.UndirectedDegrees() {
			sumUnd += d
		}
		if sumUnd != 2*g.UndirectedM() {
			t.Fatalf("handshake lemma violated: Σdeg %d != 2M %d", sumUnd, 2*g.UndirectedM())
		}
	}
}
