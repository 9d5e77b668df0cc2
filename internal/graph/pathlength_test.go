package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/magellan-p2p/magellan/internal/isp"
)

// referenceAveragePathLength is the per-source BFS AveragePathLength ran
// before it became bit-parallel: the same source draw, then one queue
// BFS per source. It is the oracle the bit-parallel kernel must match bit
// for bit.
func referenceAveragePathLength(g *Digraph, rng *rand.Rand, samples int) float64 {
	n := g.N()
	if n < 2 {
		return 0
	}
	sources := make([]int32, n)
	for i := range sources {
		sources[i] = int32(i)
	}
	if samples > 0 && samples < n {
		if rng == nil {
			rng = rand.New(rand.NewSource(1))
		}
		rng.Shuffle(n, func(i, j int) { sources[i], sources[j] = sources[j], sources[i] })
		sources = sources[:samples]
	}

	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	var sum float64
	var pairs int64
	for _, s := range sources {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			du := dist[u] + 1
			for _, v := range g.Undirected(u) {
				if dist[v] < 0 {
					dist[v] = du
					sum += float64(du)
					pairs++
					queue = append(queue, v)
				}
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return sum / float64(pairs)
}

// fragmentedGraph builds an n-node graph with isolated nodes and several
// components: node i belongs to component i%comps, one node in seven
// stays isolated, and each component gets random directed edges among its
// members — sparse ones (long paths) and dense ones alike.
func fragmentedGraph(rng *rand.Rand, n, comps int) *Digraph {
	b := NewBuilder()
	members := make([][]isp.Addr, comps)
	for i := 0; i < n; i++ {
		a := isp.Addr(i + 1)
		b.AddNode(a)
		if i%7 != 3 {
			c := i % comps
			members[c] = append(members[c], a)
		}
	}
	for c, m := range members {
		if len(m) < 2 {
			continue
		}
		edges := len(m) * (1 + c%3)
		for e := 0; e < edges; e++ {
			b.AddEdge(m[rng.Intn(len(m))], m[rng.Intn(len(m))])
		}
	}
	return b.Build()
}

// TestAveragePathLengthMatchesReference checks the bit-parallel kernel
// against the per-source oracle: identical float64 bits and an identical
// next draw from rng, across batch boundaries (63/64/65 sources), exact
// and sampled modes, and graphs with isolated nodes and several
// components.
func TestAveragePathLengthMatchesReference(t *testing.T) {
	for _, n := range []int{2, 63, 64, 65, 500} {
		for _, comps := range []int{1, 3} {
			g := fragmentedGraph(rand.New(rand.NewSource(int64(n*10+comps))), n, comps)
			for _, samples := range []int{0, 1, 63, 64, 65, n - 1, n} {
				t.Run(fmt.Sprintf("n%d_comps%d_samples%d", n, comps, samples), func(t *testing.T) {
					seed := int64(n + samples)
					gotRng, wantRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
					got := g.AveragePathLength(gotRng, samples)
					want := referenceAveragePathLength(g, wantRng, samples)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("L = %v (%#x), reference %v (%#x)", got, math.Float64bits(got), want, math.Float64bits(want))
					}
					if a, b := gotRng.Int63(), wantRng.Int63(); a != b {
						t.Fatalf("next rng draw %d, reference %d", a, b)
					}
				})
			}
		}
	}
	// A nil rng falls back to the same fixed seed in both.
	g := fragmentedGraph(rand.New(rand.NewSource(9)), 200, 2)
	if got, want := g.AveragePathLength(nil, 70), referenceAveragePathLength(g, nil, 70); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("nil rng: L = %v, reference %v", got, want)
	}
}
