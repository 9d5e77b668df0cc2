// Package gnutella builds Gnutella-style file-sharing overlay topologies
// — the baseline the paper contrasts UUSee against. Earlier measurement
// studies (Ripeanu et al., Jovanovic et al.) reported power-law degree
// distributions for the first-generation network; Stutzbach et al. found
// modern two-tier Gnutella is better described by a flat-ish ultrapeer
// distribution with a spike at the client's connection target. Both
// generations are generated here so the analysis pipeline can show, with
// the same fitting machinery, that neither matches UUSee's spiked,
// supply-driven degree structure.
package gnutella

import (
	"fmt"
	"math/rand"
	"slices"

	"github.com/magellan-p2p/magellan/internal/graph"
	"github.com/magellan-p2p/magellan/internal/isp"
)

// Generation selects the overlay construction era.
type Generation uint8

const (
	// Legacy is flat first-generation Gnutella: peers discover neighbours
	// through pong caches, which are populated proportionally to a
	// node's existing connectivity — preferential attachment, hence
	// power-law degrees.
	Legacy Generation = iota + 1
	// Modern is two-tier Gnutella: leaves hold a few connections to
	// ultrapeers; ultrapeers hold up to a target number of
	// ultrapeer-to-ultrapeer connections, producing a spike at the
	// target rather than a power law.
	Modern
)

// Config parameterizes topology construction.
type Config struct {
	Seed  int64
	Peers int
	// Gen defaults to Modern.
	Gen Generation
}

// Build generates one overlay snapshot. Edges are emitted in both
// directions (Gnutella connections are symmetric TCP links), so degree
// analyses read the undirected structure.
func Build(cfg Config) (*graph.Digraph, error) {
	if cfg.Peers < 10 {
		return nil, fmt.Errorf("gnutella: need at least 10 peers, got %d", cfg.Peers)
	}
	if cfg.Gen == 0 {
		cfg.Gen = Modern
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	switch cfg.Gen {
	case Legacy:
		return buildLegacy(cfg, rng), nil
	case Modern:
		return buildModern(cfg, rng), nil
	default:
		return nil, fmt.Errorf("gnutella: unknown generation %d", cfg.Gen)
	}
}

// _legacyLinks is the number of neighbours each joining legacy peer
// attaches to (Barabási–Albert m).
const _legacyLinks = 3

// buildLegacy grows the overlay with preferential attachment: each
// arriving peer connects to _legacyLinks existing peers drawn
// proportionally to current degree (the pong-cache bias).
func buildLegacy(cfg Config, rng *rand.Rand) *graph.Digraph {
	b := graph.NewBuilder()
	// endpointList holds one entry per edge endpoint, so uniform
	// sampling from it is degree-proportional sampling — the classic
	// Barabási–Albert trick.
	var endpoints []int

	addEdge := func(u, v int) {
		b.AddEdge(isp.Addr(u+1), isp.Addr(v+1))
		b.AddEdge(isp.Addr(v+1), isp.Addr(u+1))
		endpoints = append(endpoints, u, v)
	}

	// Seed clique of m+1 nodes.
	const m = _legacyLinks
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			addEdge(u, v)
		}
	}
	// chosen keeps draw order: the edges it adds extend endpoints, which
	// later draws index, so a map's iteration order would make the
	// overlay differ from run to run under one seed.
	chosen := make([]int, 0, m)
	for u := m + 1; u < cfg.Peers; u++ {
		chosen = chosen[:0]
		for len(chosen) < m {
			v := endpoints[rng.Intn(len(endpoints))]
			if v == u || slices.Contains(chosen, v) {
				continue
			}
			chosen = append(chosen, v)
		}
		for _, v := range chosen {
			addEdge(u, v)
		}
	}
	return b.Build()
}

// The two-tier overlay's shape: the share of peers promoted to
// ultrapeer, each leaf's ultrapeer connection count, and each
// ultrapeer's peer-to-peer connection target (30, where Stutzbach's
// spike sits).
const (
	_ultrapeerFraction = 0.15
	LeafLinks          = 3
	_ultraTarget       = 30
)

// buildModern wires the two-tier overlay: ultrapeers first connect among
// themselves toward _ultraTarget connections, then leaves attach to
// LeafLinks random ultrapeers.
func buildModern(cfg Config, rng *rand.Rand) *graph.Digraph {
	b := graph.NewBuilder()
	nUltra := int(float64(cfg.Peers) * _ultrapeerFraction)
	if nUltra < _ultraTarget+1 {
		nUltra = _ultraTarget + 1
	}
	if nUltra > cfg.Peers-1 {
		nUltra = cfg.Peers - 1
	}
	degree := make([]int, cfg.Peers)

	addEdge := func(u, v int) {
		b.AddEdge(isp.Addr(u+1), isp.Addr(v+1))
		b.AddEdge(isp.Addr(v+1), isp.Addr(u+1))
		degree[u]++
		degree[v]++
	}

	// Ultrapeer mesh: each ultrapeer samples peers until it reaches its
	// target, skipping saturated candidates; jitter the per-node target
	// slightly so the spike has realistic width.
	targets := make([]int, nUltra)
	for u := range targets {
		targets[u] = _ultraTarget - 2 + rng.Intn(5)
	}
	type pair struct{ u, v int }
	seen := make(map[pair]struct{})
	for u := 0; u < nUltra; u++ {
		for attempts := 0; degree[u] < targets[u] && attempts < 20*_ultraTarget; attempts++ {
			v := rng.Intn(nUltra)
			if v == u || degree[v] >= targets[v]+2 {
				continue
			}
			key := pair{min(u, v), max(u, v)}
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			addEdge(u, v)
		}
	}

	// Leaves.
	for u := nUltra; u < cfg.Peers; u++ {
		chosen := make(map[int]struct{}, LeafLinks)
		for len(chosen) < LeafLinks {
			chosen[rng.Intn(nUltra)] = struct{}{}
		}
		for v := range chosen {
			addEdge(u, v)
		}
	}
	return b.Build()
}

// UltrapeerDegrees extracts the undirected degrees of peers with degree
// above the leaf level — the population whose distribution Stutzbach's
// spike claim concerns.
func UltrapeerDegrees(g *graph.Digraph, leafLinks int) []int {
	var out []int
	for i := 0; i < g.N(); i++ {
		if d := g.UndirectedDegree(int32(i)); d > leafLinks {
			out = append(out, d)
		}
	}
	return out
}
