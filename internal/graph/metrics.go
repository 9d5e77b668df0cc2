//magellan:hotpath
package graph

import (
	"math/bits"
	"math/rand"
)

// InDegrees returns the active indegree of every node.
func (g *Digraph) InDegrees() []int {
	out := make([]int, g.N())
	for i := range out {
		out[i] = len(g.in[i])
	}
	return out
}

// OutDegrees returns the active outdegree of every node.
func (g *Digraph) OutDegrees() []int {
	out := make([]int, g.N())
	for i := range out {
		out[i] = len(g.out[i])
	}
	return out
}

// UndirectedDegrees returns every node's undirected neighbourhood size.
func (g *Digraph) UndirectedDegrees() []int {
	out := make([]int, g.N())
	for i := range out {
		out[i] = g.UndirectedDegree(int32(i))
	}
	return out
}

// ClusteringCoefficient computes the Watts–Strogatz clustering
// coefficient on the undirected version of the graph: the average over
// nodes of (edges among the node's neighbours) / (possible edges among
// them). Nodes with fewer than two neighbours are excluded from the
// average, the convention of the small-world literature the paper builds
// on.
func (g *Digraph) ClusteringCoefficient() float64 {
	g.buildUndirected()
	// Count each node's neighbourhood edges by stamping its neighbours
	// and scanning their adjacency lists: O(Σ d(v)²) total instead of
	// O(Σ k² log d) pairwise binary searches. links is an exact integer
	// either way, so the per-node float terms — and their accumulation
	// order — are unchanged.
	g.stamp = resize(g.stamp, len(g.und))
	stamp := g.stamp
	for i := range stamp {
		stamp[i] = -1
	}
	var sum float64
	counted := 0
	for i := range g.und {
		adj := g.und[i]
		k := len(adj)
		if k < 2 {
			continue
		}
		mark := int32(i)
		for _, v := range adj {
			stamp[v] = mark
		}
		links := 0
		for _, v := range adj {
			for _, w := range g.und[v] {
				if stamp[w] == mark {
					links++
				}
			}
		}
		// Every neighbourhood edge v–w was seen from both endpoints.
		links /= 2
		sum += 2 * float64(links) / float64(k*(k-1))
		counted++
	}
	if counted == 0 {
		return 0
	}
	return sum / float64(counted)
}

// AveragePathLength estimates the mean pairwise shortest-path length over
// the undirected graph, ignoring unreachable pairs. If samples <= 0 or
// samples >= N, every node is used as a BFS source (exact); otherwise
// `samples` sources are drawn without replacement using rng.
//
// The sources run as one bit-parallel breadth-first search per batch of
// 64 (Then et al., "The More the Merrier", VLDB 2014). Bit b of a node's
// seen word says source b has reached it; bit b of its frontier word says
// it did so on the previous level. Each level is one pull sweep over the
// undirected adjacency: a node ORs its neighbours' frontier words and
// keeps the bits it has not seen, and the sweep adds level × popcount(new
// bits) to the distance sum. A bit first reaches a node on the level equal
// to its distance from that source, so the integer sum and pair count
// equal those of one search per source; both stay far below 2^53, so
// their float64 quotient keeps every bit.
func (g *Digraph) AveragePathLength(rng *rand.Rand, samples int) float64 {
	n := g.N()
	if n < 2 {
		return 0
	}
	g.sources = resize(g.sources, n)
	sources := g.sources
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

	g.buildUndirected()
	g.words = resize(g.words, 3*n)
	words := g.words
	seen, frontier, next := words[:n:n], words[n:2*n:2*n], words[2*n:]
	var sum, pairs int64
	for len(sources) > 0 {
		batch := sources[:min(64, len(sources))]
		sources = sources[len(batch):]
		full := ^uint64(0) >> (64 - len(batch))
		clear(words)
		for b, s := range batch {
			seen[s] |= 1 << b
			frontier[s] |= 1 << b
		}
		for level := int64(1); ; level++ {
			var found int64
			for v, adj := range g.und {
				if seen[v] == full {
					next[v] = 0
					continue
				}
				var reach uint64
				for _, u := range adj {
					reach |= frontier[u]
				}
				fresh := reach &^ seen[v]
				next[v] = fresh
				if fresh != 0 {
					seen[v] |= fresh
					found += int64(bits.OnesCount64(fresh))
				}
			}
			if found == 0 {
				break
			}
			sum += level * found
			pairs += found
			frontier, next = next, frontier
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(sum) / float64(pairs)
}

// Reciprocity returns the raw bilateral-edge fraction r of Eq. (1): the
// number of directed edges whose reverse also exists, over all directed
// edges.
func (g *Digraph) Reciprocity() float64 { return g.ReciprocityStats().R() }

// ReciprocityStats returns the graph's node, edge and bilateral-edge
// counts, from which SubgraphStats computes both r and ρ: a caller that
// needs the two merges the adjacency lists once.
func (g *Digraph) ReciprocityStats() SubgraphStats {
	// An edge u→v is bilateral iff v→u exists, i.e. v is in both u's out-
	// and in-list; both lists are sorted, so a linear merge counts the
	// intersection without per-edge binary searches.
	bilateral := 0
	for u := range g.out {
		o, in := g.out[u], g.in[u]
		i, j := 0, 0
		for i < len(o) && j < len(in) {
			switch {
			case o[i] == in[j]:
				bilateral++
				i++
				j++
			case o[i] < in[j]:
				i++
			default:
				j++
			}
		}
	}
	return SubgraphStats{N: g.N(), M: g.m, Bilateral: bilateral}
}

// SubgraphStats carries the three integers reciprocity needs — nodes,
// directed edges, and bilateral edges — for a whole graph, or for an
// edge subgraph that was never materialized.
type SubgraphStats struct {
	N, M, Bilateral int
}

// R returns the raw reciprocity r = Bilateral / M, or 0 without edges.
func (s SubgraphStats) R() float64 {
	if s.M == 0 {
		return 0
	}
	return float64(s.Bilateral) / float64(s.M)
}

// GarlaschelliLoffredo returns the edge reciprocity ρ of Eq. (2):
// ρ = (r − ā) / (1 − ā) with ā = M / (N(N−1)), the density-corrected
// reciprocity. ρ > 0 means more reciprocal than a random graph of equal
// density; ρ < 0 means antireciprocal (tree-like).
func (s SubgraphStats) GarlaschelliLoffredo() float64 {
	n := int64(s.N)
	if n < 2 || s.M == 0 {
		return 0
	}
	abar := float64(s.M) / float64(n*(n-1))
	if abar >= 1 {
		return 0
	}
	return (s.R() - abar) / (1 - abar)
}

// PartitionReciprocity computes the SubgraphStats of the two edge
// subgraphs PartitionEdgeSubgraphs would build — pred-true edges and
// their incident nodes, pred-false edges and theirs — without building
// either graph: one pred call per edge (two for a bilateral one), a
// sorted merge for bilaterals, and two incidence bitmaps. pred takes the
// edge's node indices, so a caller that keeps a per-node column (an
// epoch's node ISPs) answers it by indexing. This is all the Fig. 8
// intra-/inter-ISP reciprocity needs per epoch.
func (g *Digraph) PartitionReciprocity(pred func(u, v int32) bool) (yes, no SubgraphStats) {
	g.marks = resize(g.marks, 2*g.N())
	clear(g.marks)
	inYes, inNo := g.marks[:g.N()], g.marks[g.N():]
	for u := range g.out {
		o, in := g.out[u], g.in[u]
		j := 0
		for _, v := range o {
			keep := pred(int32(u), v)
			if keep {
				yes.M++
				inYes[u], inYes[v] = true, true
			} else {
				no.M++
				inNo[u], inNo[v] = true, true
			}
			// v ∈ in[u] too means v→u also exists; the subgraph counts
			// u→v as bilateral only when both directions land in it.
			for j < len(in) && in[j] < v {
				j++
			}
			if j < len(in) && in[j] == v {
				if keep == pred(v, int32(u)) {
					if keep {
						yes.Bilateral++
					} else {
						no.Bilateral++
					}
				}
			}
		}
	}
	for i := range inYes {
		if inYes[i] {
			yes.N++
		}
		if inNo[i] {
			no.N++
		}
	}
	return yes, no
}

// GarlaschelliLoffredo returns the edge reciprocity ρ of Eq. (2); see
// SubgraphStats.GarlaschelliLoffredo.
func (g *Digraph) GarlaschelliLoffredo() float64 {
	return g.ReciprocityStats().GarlaschelliLoffredo()
}

// MeanDegree returns (mean indegree, mean outdegree, mean undirected
// degree) over all nodes.
func (g *Digraph) MeanDegree() (in, out, und float64) {
	n := g.N()
	if n == 0 {
		return 0, 0, 0
	}
	var si, so, su int
	for i := 0; i < n; i++ {
		si += len(g.in[i])
		so += len(g.out[i])
		su += g.UndirectedDegree(int32(i))
	}
	return float64(si) / float64(n), float64(so) / float64(n), float64(su) / float64(n)
}
