package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/magellan-p2p/magellan/internal/isp"
)

// sameDigraph asserts two graphs are identical: same node numbering,
// same adjacency in the same order. The CSR fast path must be
// bit-equivalent to the map-based Builder, not merely isomorphic —
// downstream float accumulation follows index order.
func sameDigraph(t *testing.T, got, want *Digraph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("shape (%d nodes, %d edges), want (%d, %d)", got.N(), got.M(), want.N(), want.M())
	}
	for i := int32(0); i < int32(want.N()); i++ {
		if got.Addr(i) != want.Addr(i) {
			t.Fatalf("node %d is %v, want %v", i, got.Addr(i), want.Addr(i))
		}
		if !slices.Equal(got.Out(i), want.Out(i)) {
			t.Fatalf("out[%d] = %v, want %v", i, got.Out(i), want.Out(i))
		}
		if !slices.Equal(got.In(i), want.In(i)) {
			t.Fatalf("in[%d] = %v, want %v", i, got.In(i), want.In(i))
		}
	}
}

// randomEdges yields a deterministic pseudo-random edge stream with
// duplicates and self-loops mixed in.
func randomEdges(seed int64, n, m int) [][2]isp.Addr {
	rng := rand.New(rand.NewSource(seed))
	edges := make([][2]isp.Addr, 0, m)
	for i := 0; i < m; i++ {
		u := isp.Addr(rng.Intn(n) + 1)
		v := isp.Addr(rng.Intn(n) + 1)
		edges = append(edges, [2]isp.Addr{u, v})
		if rng.Intn(4) == 0 { // sprinkle exact duplicates
			edges = append(edges, [2]isp.Addr{u, v})
		}
	}
	return edges
}

func TestCSRBuilderMatchesBuilder(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		edges := randomEdges(seed, 50, 400)
		pre := []isp.Addr{5, 17, 23, 99} // pre-registered (possibly isolated) nodes

		legacy := NewBuilder()
		for _, a := range pre {
			legacy.AddNode(a)
		}
		for _, e := range edges {
			legacy.AddEdge(e[0], e[1])
		}

		csr := NewCSRBuilder()
		csr.Reset(pre)
		for _, e := range edges {
			csr.AddEdge(e[0], e[1])
		}

		sameDigraph(t, csr.Build(), legacy.Build())
	}
}

func TestCSRBuilderReuseAcrossBuilds(t *testing.T) {
	csr := NewCSRBuilder()
	var built, want []*Digraph
	for _, seed := range []int64{10, 11, 12} {
		edges := randomEdges(seed, 30, 150)
		legacy := NewBuilder()
		for _, e := range edges {
			legacy.AddEdge(e[0], e[1])
		}
		csr.Reset(nil)
		for _, e := range edges {
			csr.AddEdge(e[0], e[1])
		}
		built = append(built, csr.Build())
		want = append(want, legacy.Build())
	}
	// Built graphs own their arrays: a later Reset+Build must not
	// scribble over an earlier result.
	for i := range built {
		sameDigraph(t, built[i], want[i])
	}
}

// csrGraph builds a pseudo-random graph with n candidate nodes, up to m
// edges and a few pre-registered nodes, which may stay isolated, into g.
func csrGraph(b *CSRBuilder, g *Digraph, seed int64, n, m int) *Digraph {
	b.Reset([]isp.Addr{isp.Addr(n + 1), 2, isp.Addr(n + 2)})
	for _, e := range randomEdges(seed, n, m) {
		b.AddEdge(e[0], e[1])
	}
	return b.BuildInto(g)
}

// sameAccessors asserts that every accessor and metric of got reads
// exactly as on want: adjacency, the lazy undirected view and address
// index, and the metric kernels, with floats compared bit for bit.
func sameAccessors(t *testing.T, got, want *Digraph) {
	t.Helper()
	sameDigraph(t, got, want)
	if got.UndirectedM() != want.UndirectedM() {
		t.Fatalf("UndirectedM = %d, want %d", got.UndirectedM(), want.UndirectedM())
	}
	for i := int32(0); i < int32(want.N()); i++ {
		if !slices.Equal(got.Undirected(i), want.Undirected(i)) {
			t.Fatalf("Undirected(%d) = %v, want %v", i, got.Undirected(i), want.Undirected(i))
		}
	}
	// Every address the test graphs use, present or not.
	for a := isp.Addr(0); a < 256; a++ {
		gi, gok := got.Index(a)
		wi, wok := want.Index(a)
		if gi != wi || gok != wok {
			t.Fatalf("Index(%v) = %d, %v, want %d, %v", a, gi, gok, wi, wok)
		}
	}
	bits := func(name string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}
	bits("ClusteringCoefficient", got.ClusteringCoefficient(), want.ClusteringCoefficient())
	bits("AveragePathLength exact", got.AveragePathLength(nil, 0), want.AveragePathLength(nil, 0))
	bits("AveragePathLength sampled",
		got.AveragePathLength(rand.New(rand.NewSource(5)), 7),
		want.AveragePathLength(rand.New(rand.NewSource(5)), 7))
	bits("GarlaschelliLoffredo", got.GarlaschelliLoffredo(), want.GarlaschelliLoffredo())
	pred := func(u, v int32) bool { return u < v }
	gy, gn := got.PartitionReciprocity(pred)
	wy, wn := want.PartitionReciprocity(pred)
	if gy != wy || gn != wn {
		t.Fatalf("PartitionReciprocity = %+v, %+v, want %+v, %+v", gy, gn, wy, wn)
	}
}

// TestBuildIntoReusesArena fills every lazy cache and kernel scratch of
// a Digraph, rebuilds a smaller or a larger graph into it, and checks
// that nothing of the first graph shows through: the rebuilt arena
// must read exactly as a fresh build.
func TestBuildIntoReusesArena(t *testing.T) {
	for _, size := range []struct {
		name string
		n, m int
	}{{"smaller", 12, 40}, {"larger", 120, 1500}} {
		t.Run(size.name, func(t *testing.T) {
			b := NewCSRBuilder()
			var arena Digraph
			first := csrGraph(b, &arena, 1, 40, 300)
			sameAccessors(t, first, csrGraph(NewCSRBuilder(), new(Digraph), 1, 40, 300))

			got := csrGraph(b, &arena, 2, size.n, size.m)
			if got != &arena {
				t.Fatal("BuildInto did not return its argument")
			}
			sameAccessors(t, got, csrGraph(NewCSRBuilder(), new(Digraph), 2, size.n, size.m))
		})
	}
}

// inducedReference is the map-based Builder build of the subgraph of g
// induced by the node indices keep accepts.
func inducedReference(g *Digraph, keep func(i int32) bool) *Digraph {
	ref := NewBuilder()
	for i := int32(0); i < int32(g.N()); i++ {
		if keep(i) {
			ref.AddNode(g.Addr(i))
		}
	}
	for u := int32(0); u < int32(g.N()); u++ {
		for _, v := range g.Out(u) {
			if keep(u) && keep(v) {
				ref.AddEdge(g.Addr(u), g.Addr(v))
			}
		}
	}
	return ref.Build()
}

// TestKeepPrefixMatchesBuilder cuts random CSR graphs down to prefixes
// of every size class, the first node to all of them, and compares each
// cut with a Builder build of the induced edges.
func TestKeepPrefixMatchesBuilder(t *testing.T) {
	for _, seed := range []int64{4, 5, 6} {
		full := csrGraph(NewCSRBuilder(), new(Digraph), seed, 60, 700)
		for _, r := range []int{0, 1, 3, full.N() / 2, full.N() - 1, full.N()} {
			want := inducedReference(full, func(i int32) bool { return int(i) < r })
			got := csrGraph(NewCSRBuilder(), new(Digraph), seed, 60, 700)
			got.UndirectedM() // a cached undirected view must not survive the cut
			sameAccessors(t, got.KeepPrefix(r), want)
		}
	}
}

// TestKeepPrefixThenRebuild cuts a warm arena to a prefix and rebuilds
// a larger graph into it: the rebuilt arena must read exactly as a
// fresh build, undirected view and address index included.
func TestKeepPrefixThenRebuild(t *testing.T) {
	b := NewCSRBuilder()
	var arena Digraph
	first := csrGraph(b, &arena, 7, 40, 300)
	sameAccessors(t, first, csrGraph(NewCSRBuilder(), new(Digraph), 7, 40, 300))
	r := first.N() / 3
	want := inducedReference(csrGraph(NewCSRBuilder(), new(Digraph), 7, 40, 300), func(i int32) bool { return int(i) < r })
	if got := first.KeepPrefix(r); got != &arena {
		t.Fatal("KeepPrefix did not return its receiver")
	}
	sameAccessors(t, &arena, want)

	sameAccessors(t, csrGraph(b, &arena, 8, 120, 1500), csrGraph(NewCSRBuilder(), new(Digraph), 8, 120, 1500))
}

// TestInducedSubgraphIntoReusesArena rebuilds subgraphs of different
// sizes into one arena and compares each with the map-based reference.
func TestInducedSubgraphIntoReusesArena(t *testing.T) {
	g := csrGraph(NewCSRBuilder(), new(Digraph), 3, 80, 900)
	var arena Digraph
	for _, mod := range []isp.Addr{2, 7, 3, 1} {
		keep := func(i int32) bool { return g.Addr(i)%mod == 0 }
		got := g.InducedSubgraphInto(&arena, keep)
		if got != &arena {
			t.Fatal("InducedSubgraphInto did not return its argument")
		}
		sameAccessors(t, got, inducedReference(g, keep))
	}
}

func TestPartitionEdgeSubgraphsMatchesTwoPasses(t *testing.T) {
	edges := randomEdges(7, 40, 300)
	b := NewBuilder()
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()

	pred := func(from, to isp.Addr) bool { return (from+to)%3 == 0 }
	yes, no := g.PartitionEdgeSubgraphs(pred)
	wantYes := g.EdgeSubgraph(pred)
	wantNo := g.EdgeSubgraph(func(from, to isp.Addr) bool { return !pred(from, to) })
	sameDigraph(t, yes, wantYes)
	sameDigraph(t, no, wantNo)
	if yes.M()+no.M() != g.M() {
		t.Errorf("partition loses edges: %d + %d != %d", yes.M(), no.M(), g.M())
	}
}

func TestPartitionReciprocityMatchesSubgraphs(t *testing.T) {
	// Include a NON-symmetric predicate: an edge can satisfy pred while
	// its reverse does not, which exercises the bilateral membership rule
	// (both directions must land in the same partition to count). Each
	// predicate is stated over addresses for the EdgeSubgraph reference
	// and handed to PartitionReciprocity over node indices.
	preds := map[string]func(from, to isp.Addr) bool{
		"symmetric":  func(from, to isp.Addr) bool { return (from+to)%3 == 0 },
		"asymmetric": func(from, to isp.Addr) bool { return from < to },
		"all-yes":    func(from, to isp.Addr) bool { return true },
	}
	for name, pred := range preds {
		t.Run(name, func(t *testing.T) {
			edges := randomEdges(13, 40, 300)
			b := NewBuilder()
			for _, e := range edges {
				b.AddEdge(e[0], e[1])
			}
			g := b.Build()

			yes, no := g.PartitionReciprocity(func(u, v int32) bool { return pred(g.Addr(u), g.Addr(v)) })
			wantYes, wantNo := g.PartitionEdgeSubgraphs(pred)
			for _, c := range []struct {
				got  SubgraphStats
				want *Digraph
			}{{yes, wantYes}, {no, wantNo}} {
				if c.got.N != c.want.N() || c.got.M != c.want.M() {
					t.Fatalf("stats (%d nodes, %d edges), want (%d, %d)",
						c.got.N, c.got.M, c.want.N(), c.want.M())
				}
				if got, want := c.got.GarlaschelliLoffredo(), c.want.GarlaschelliLoffredo(); got != want {
					t.Errorf("rho = %v, want %v (bilateral=%d)", got, want, c.got.Bilateral)
				}
			}
		})
	}
}

func TestUndirectedMMemoized(t *testing.T) {
	g := buildGraph([][2]uint32{{1, 2}, {2, 1}, {2, 3}, {4, 1}})
	// {1,2} mutual collapses to one undirected edge: 1-2, 2-3, 1-4.
	if m := g.UndirectedM(); m != 3 {
		t.Fatalf("UndirectedM = %d, want 3", m)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if g.UndirectedM() != 3 {
			t.Fatal("memoized value changed")
		}
	}); allocs != 0 {
		t.Errorf("UndirectedM allocates %.0f per call after first, want 0", allocs)
	}
}
