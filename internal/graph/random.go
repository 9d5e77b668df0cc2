package graph

import (
	"math"
	"math/rand"
	"slices"

	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/radix"
)

// ErdosRenyiGM generates a directed G(n, m) random graph: m distinct
// directed edges (no self-loops) placed uniformly at random. It is the
// "corresponding random graph" the paper compares every topology against:
// same number of vertices and edges, no structure.
func ErdosRenyiGM(n, m int, rng *rand.Rand) *Digraph {
	var s RandomScratch
	return s.gnm(new(Digraph), n, m, rng)
}

// RandomBaseline measures the clustering coefficient and average path
// length of an Erdős–Rényi graph with the same node and edge counts as g,
// the exact comparison of Fig. 7. pathSamples limits the BFS sources (≤ 0
// means exact).
func RandomBaseline(g *Digraph, rng *rand.Rand, pathSamples int) (c, l float64) {
	return new(RandomScratch).Baseline(g, rng, pathSamples)
}

// RandomScratch keeps what an Erdős–Rényi draw needs between draws — the
// dedup set, the edge buffer, the radix and degree scratch, and the graph
// itself — so a pipeline that measures a random baseline every epoch
// reuses them. The zero value is ready for use. Not safe for concurrent
// use.
type RandomScratch struct {
	seen    map[uint64]struct{}
	edges   []uint64
	scratch []uint64 // radix.Sort's ping-pong buffer
	deg     []int32  // Digraph.load's degree counts
	g       Digraph
}

// Baseline is RandomBaseline through s: the random graph is drawn into
// s's own Digraph, which the next Baseline overwrites.
func (s *RandomScratch) Baseline(g *Digraph, rng *rand.Rand, pathSamples int) (c, l float64) {
	r := s.gnm(&s.g, g.N(), g.M(), rng)
	return r.ClusteringCoefficient(), r.AveragePathLength(rng, pathSamples)
}

// gnm draws G(n, m) into g.
func (s *RandomScratch) gnm(g *Digraph, n, m int, rng *rand.Rand) *Digraph {
	// Synthetic addresses 1..n keep node identity simple; node i's index
	// is i−1, so drawn index pairs are final and the CSR arrays can be
	// assembled directly — no per-edge map registration.
	g.ids = resize(g.ids, n)
	for i := range g.ids {
		g.ids[i] = isp.Addr(i + 1)
	}
	maxEdges := int64(n) * int64(n-1)
	if int64(m) > maxEdges {
		m = int(maxEdges)
	}
	if s.seen == nil {
		s.seen = make(map[uint64]struct{}, m)
	} else {
		clear(s.seen)
	}
	edges := resize(s.edges, m)[:0]
	for len(s.seen) < m {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		e := packEdge(u, v)
		if _, dup := s.seen[e]; dup {
			continue
		}
		s.seen[e] = struct{}{}
		edges = append(edges, e)
	}
	s.edges = radix.Sort(edges, &s.scratch)
	return g.load(s.edges, &s.deg)
}

// TheoreticalRandomClustering is the analytic E[C] of a random graph:
// edge density k̄/(n−1) with k̄ the mean undirected degree.
func TheoreticalRandomClustering(n int, meanUndirectedDegree float64) float64 {
	if n < 2 {
		return 0
	}
	return meanUndirectedDegree / float64(n-1)
}

// TheoreticalRandomPathLength is the classic ln(n)/ln(k̄) estimate for a
// random graph's average distance.
func TheoreticalRandomPathLength(n int, meanUndirectedDegree float64) float64 {
	if n < 2 || meanUndirectedDegree <= 1 {
		return 0
	}
	return math.Log(float64(n)) / math.Log(meanUndirectedDegree)
}

// PowerLawFit is the result of fitting a discrete power law to a degree
// sample: P(X = x) ∝ x^(−Alpha) for x ≥ Xmin.
type PowerLawFit struct {
	Alpha float64
	Xmin  int
	// KS is the Kolmogorov–Smirnov distance between the empirical tail
	// CCDF and the fitted power law: large KS means the sample is not
	// power-law distributed — the paper's claim for UUSee degrees.
	KS float64
	// TailN is the number of observations at or above Xmin.
	TailN int
}

// FitPowerLaw fits α by the discrete maximum-likelihood estimator
// α ≈ 1 + n / Σ ln(x_i / (xmin − 0.5)) and reports the KS distance of the
// fit. Observations below xmin are ignored; xmin < 1 is clamped to 1.
func FitPowerLaw(degrees []int, xmin int) PowerLawFit {
	if xmin < 1 {
		xmin = 1
	}
	var tail []int
	for _, d := range degrees {
		if d >= xmin {
			tail = append(tail, d)
		}
	}
	fit := PowerLawFit{Xmin: xmin, TailN: len(tail)}
	if len(tail) == 0 {
		return fit
	}
	var logSum float64
	for _, d := range tail {
		logSum += math.Log(float64(d) / (float64(xmin) - 0.5))
	}
	if logSum <= 0 {
		fit.Alpha = math.Inf(1)
		return fit
	}
	fit.Alpha = 1 + float64(len(tail))/logSum
	fit.KS = ksDistance(tail, fit.Alpha, xmin)
	return fit
}

// ksDistance computes sup_x |CCDF_emp(x) − CCDF_fit(x)| over the tail.
func ksDistance(tail []int, alpha float64, xmin int) float64 {
	sorted := make([]int, len(tail))
	copy(sorted, tail)
	slices.Sort(sorted)

	// Hurwitz-zeta-normalized fit is overkill here; the continuous
	// approximation CCDF(x) = (x / xmin)^(1−α) is the standard shortcut
	// for goodness-of-fit screening. Ties are handled by evaluating the
	// empirical CCDF only at distinct values.
	n := float64(len(sorted))
	var maxDiff float64
	for i := 0; i < len(sorted); i++ {
		if i > 0 && sorted[i] == sorted[i-1] {
			continue
		}
		x := sorted[i]
		emp := 1 - float64(i)/n // P(X ≥ x) empirically
		fit := math.Pow(float64(x)/float64(xmin), 1-alpha)
		if d := math.Abs(emp - fit); d > maxDiff {
			maxDiff = d
		}
	}
	return maxDiff
}

// SampleParetoDegrees draws n degrees from a discrete power law with the
// given alpha and xmin — used by tests to verify the fitter and by the
// degree-distribution analyzer's self-checks.
func SampleParetoDegrees(rng *rand.Rand, n int, alpha float64, xmin int) []int {
	out := make([]int, n)
	for i := range out {
		u := rng.Float64()
		out[i] = int(float64(xmin) * math.Pow(1-u, -1/(alpha-1)))
	}
	return out
}
