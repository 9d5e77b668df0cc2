package core

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/graph"
	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/trace"
)

// edge is a directed edge between two peer addresses.
type edge [2]isp.Addr

// epochReference holds the kernel's ISP-dependent and graph-derived
// fields of one epoch as the paper defines them, computed from the
// epoch's raw reports with maps and one db.Lookup per address: no CSR
// graph, no node index and no per-node column.
type epochReference struct {
	ispCounts                        map[isp.ISP]int
	unknown                          int
	intraIn, intraOut                float64
	rawR, rhoAll, rhoIntra, rhoInter float64
	stableNodes                      map[isp.Addr]bool
	stableEdges                      map[edge]bool
	netcomNodes                      map[isp.Addr]bool
	netcomEdges                      map[edge]bool
}

// rho is Eq. (2) over a graph's node, edge and bilateral-edge counts.
func rho(n, m, bilateral int) float64 {
	nn := int64(n)
	if nn < 2 || m == 0 {
		return 0
	}
	abar := float64(m) / float64(nn*(nn-1))
	if abar >= 1 {
		return 0
	}
	return (float64(bilateral)/float64(m) - abar) / (1 - abar)
}

// referenceEpoch computes epochReference from an epoch's raw reports in
// arrival order: the last report from each peer wins, and the peers are
// taken in address order, the order every per-peer sum follows.
func referenceEpoch(raw []trace.Report, db *isp.Database, thr uint32) epochReference {
	latest := make(map[isp.Addr]trace.Report)
	for _, r := range raw {
		latest[r.Addr] = r
	}
	reports := make([]trace.Report, 0, len(latest))
	for _, r := range latest {
		reports = append(reports, r)
	}
	slices.SortFunc(reports, func(a, b trace.Report) int { return cmp.Compare(a.Addr, b.Addr) })

	ispOf := make(map[isp.Addr]isp.ISP)
	lookup := func(a isp.Addr) isp.ISP {
		p, ok := ispOf[a]
		if !ok {
			p = db.Lookup(a)
			ispOf[a] = p
		}
		return p
	}
	ref := epochReference{
		ispCounts:   make(map[isp.ISP]int),
		stableNodes: make(map[isp.Addr]bool),
		stableEdges: make(map[edge]bool),
		netcomNodes: make(map[isp.Addr]bool),
		netcomEdges: make(map[edge]bool),
	}

	// Visible peers: the reporters and everyone on their partner lists.
	visible := make(map[isp.Addr]bool)
	for _, r := range reports {
		visible[r.Addr] = true
		ref.stableNodes[r.Addr] = true
		for _, p := range r.Partners {
			visible[p.Addr] = true
		}
	}
	for a := range visible {
		if p := lookup(a); p == isp.Unknown {
			ref.unknown++
		} else {
			ref.ispCounts[p]++
		}
	}

	// Intra-ISP fractions of each known-ISP reporter's active degrees.
	var fracIn, fracOut float64
	nIn, nOut := 0, 0
	for _, r := range reports {
		self := lookup(r.Addr)
		if self == isp.Unknown {
			continue
		}
		in, out, intraIn, intraOut := 0, 0, 0, 0
		for _, p := range r.Partners {
			same := lookup(p.Addr) == self
			if p.RecvSeg > thr {
				in++
				if same {
					intraIn++
				}
			}
			if p.SentSeg > thr {
				out++
				if same {
					intraOut++
				}
			}
		}
		if in > 0 {
			fracIn += float64(intraIn) / float64(in)
			nIn++
		}
		if out > 0 {
			fracOut += float64(intraOut) / float64(out)
			nOut++
		}
	}
	ref.intraIn, ref.intraOut = math.NaN(), math.NaN()
	if nIn > 0 {
		ref.intraIn = fracIn / float64(nIn)
	}
	if nOut > 0 {
		ref.intraOut = fracOut / float64(nOut)
	}

	// The active graph: supplier → receiver for every active transfer,
	// over the reporters and every endpoint, without self-loops.
	edges := make(map[edge]bool)
	nodes := make(map[isp.Addr]bool)
	for _, r := range reports {
		nodes[r.Addr] = true
		for _, p := range r.Partners {
			if p.Addr == r.Addr {
				continue
			}
			if p.RecvSeg > thr {
				edges[edge{p.Addr, r.Addr}] = true
				nodes[p.Addr] = true
			}
			if p.SentSeg > thr {
				edges[edge{r.Addr, p.Addr}] = true
				nodes[p.Addr] = true
			}
		}
	}
	sameISP := func(e edge) bool {
		p := lookup(e[0])
		return p != isp.Unknown && p == lookup(e[1])
	}
	bilateral := 0
	var intraM, intraB, interM, interB int
	intraNodes, interNodes := make(map[isp.Addr]bool), make(map[isp.Addr]bool)
	for e := range edges {
		rev := edges[edge{e[1], e[0]}]
		if rev {
			bilateral++
		}
		// Same-ISP is symmetric, so a bilateral edge's reverse always
		// lands in the same part.
		if sameISP(e) {
			intraM++
			intraNodes[e[0]], intraNodes[e[1]] = true, true
			if rev {
				intraB++
			}
		} else {
			interM++
			interNodes[e[0]], interNodes[e[1]] = true, true
			if rev {
				interB++
			}
		}
		if ref.stableNodes[e[0]] && ref.stableNodes[e[1]] {
			ref.stableEdges[e] = true
			if lookup(e[0]) == isp.ChinaNetcom && lookup(e[1]) == isp.ChinaNetcom {
				ref.netcomEdges[e] = true
			}
		}
	}
	if len(edges) > 0 {
		ref.rawR = float64(bilateral) / float64(len(edges))
	}
	ref.rhoAll = rho(len(nodes), len(edges), bilateral)
	ref.rhoIntra, ref.rhoInter = math.NaN(), math.NaN()
	if intraM > 0 {
		ref.rhoIntra = rho(len(intraNodes), intraM, intraB)
	}
	if interM > 0 {
		ref.rhoInter = rho(len(interNodes), interM, interB)
	}
	for a := range ref.stableNodes {
		if lookup(a) == isp.ChinaNetcom {
			ref.netcomNodes[a] = true
		}
	}
	return ref
}

// graphSets returns a graph's node and edge sets by address.
func graphSets(g *graph.Digraph) (map[isp.Addr]bool, map[edge]bool) {
	nodes, edges := make(map[isp.Addr]bool), make(map[edge]bool)
	for u := int32(0); u < int32(g.N()); u++ {
		nodes[g.Addr(u)] = true
		for _, v := range g.Out(u) {
			edges[edge{g.Addr(u), g.Addr(v)}] = true
		}
	}
	return nodes, edges
}

// checkAgainstReference runs the kernel over every epoch of a store as a
// heavy epoch, so the worker's arenas end each epoch holding the stable
// graph and its Netcom subgraph, and compares it field by field with the
// reference: integers and sets exactly, floats bit for bit.
func checkAgainstReference(t *testing.T, store *trace.Store, db *isp.Database) {
	t.Helper()
	ix := store.Seal()
	k := onlineKernel(ix.Interval(), db, Config{Seed: 1, Snapshots: []SnapshotSpec{}})
	sc := newEpochScratch()
	unknown, heavy := 0, 0
	err := store.Range(func(epoch int64, _ time.Time, raw []trace.Report) error {
		ref := referenceEpoch(raw, db, k.cfg.ActiveThreshold)
		m := k.run(NewIndexedEpochView(ix, epoch), 0, sc)
		fail := func(field string, got, want any) {
			t.Helper()
			t.Fatalf("epoch %d: %s = %v, want %v", epoch, field, got, want)
		}
		if len(m.ISPCounts) != len(ref.ispCounts) {
			fail("ISPCounts", m.ISPCounts, ref.ispCounts)
		}
		for p, c := range ref.ispCounts {
			if m.ISPCounts[p] != c {
				fail("ISPCounts", m.ISPCounts, ref.ispCounts)
			}
		}
		if m.Unknown != ref.unknown {
			fail("Unknown", m.Unknown, ref.unknown)
		}
		unknown += m.Unknown
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"IntraIn", m.IntraIn, ref.intraIn},
			{"IntraOut", m.IntraOut, ref.intraOut},
			{"RawR", m.RawR, ref.rawR},
			{"RhoAll", m.RhoAll, ref.rhoAll},
			{"RhoIntra", m.RhoIntra, ref.rhoIntra},
			{"RhoInter", m.RhoInter, ref.rhoInter},
		} {
			if math.Float64bits(f.got) != math.Float64bits(f.want) {
				fail(f.name, f.got, f.want)
			}
		}
		if !m.Heavy {
			fail("Heavy", false, true)
		}
		for _, g := range []struct {
			name    string
			graph   *graph.Digraph
			nodes   map[isp.Addr]bool
			edgeSet map[edge]bool
		}{
			{"stable graph", &sc.snap, ref.stableNodes, ref.stableEdges},
			{"Netcom subgraph", &sc.sub, ref.netcomNodes, ref.netcomEdges},
		} {
			nodes, edges := graphSets(g.graph)
			if g.graph.N() != len(g.nodes) || len(nodes) != len(g.nodes) {
				fail(g.name+" nodes", g.graph.N(), len(g.nodes))
			}
			for a := range g.nodes {
				if !nodes[a] {
					fail(g.name+" node "+a.String(), "absent", "present")
				}
			}
			if g.graph.M() != len(g.edgeSet) || len(edges) != len(g.edgeSet) {
				fail(g.name+" edges", g.graph.M(), len(g.edgeSet))
			}
			for e := range g.edgeSet {
				if !edges[e] {
					fail(g.name+" edge "+e[0].String()+"→"+e[1].String(), "absent", "present")
				}
			}
		}
		heavy++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if heavy == 0 {
		t.Fatal("no epoch compared")
	}
	t.Logf("%d epochs match the reference; %d visible peer-epochs of unknown ISP", heavy, unknown)
}

// TestKernelMatchesReference checks the kernel's index-space derivations
// — the stable graph as the active graph's reporter prefix, the Netcom
// subgraph by node rank, the per-node ISP column and the per-entry node
// column — against the definitional reference on every epoch of the
// seed-7 test trace, a trace with 5% report loss and duplication, the
// 2-shard merged trace, and a hand-built epoch whose peers include
// addresses outside the ISP database and a partner entry naming its own
// reporter.
func TestKernelMatchesReference(t *testing.T) {
	t.Run("seed7", func(t *testing.T) {
		store, db := scaledTrace(t)
		checkAgainstReference(t, store, db)
	})
	t.Run("loss", func(t *testing.T) {
		store, db := faultTrace(t)
		checkAgainstReference(t, store, db)
	})
	t.Run("sharded", func(t *testing.T) {
		stores, db := shardedStores(t, 2, false)
		merged, err := trace.MergeStores(stores...)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, merged, db)
	})
	t.Run("unknown", func(t *testing.T) {
		db, err := isp.NewDatabase([]isp.Range{
			{Lo: 100, Hi: 199, ISP: isp.ChinaNetcom},
			{Lo: 200, Hi: 299, ISP: isp.ChinaTelecom},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Reporters 101–104 (Netcom), 201–202 (Telecom), 901–902
		// (unknown); partners of every kind, active and idle.
		store := storeWith(t,
			report(101, [3]uint32{102, 50, 50}, [3]uint32{201, 50, 0}, [3]uint32{901, 0, 50}, [3]uint32{150, 50, 50}, [3]uint32{103, 0, 0}),
			report(102, [3]uint32{101, 50, 50}, [3]uint32{103, 50, 50}, [3]uint32{102, 50, 50}, [3]uint32{999, 50, 50}),
			report(103, [3]uint32{102, 50, 50}, [3]uint32{104, 50, 0}, [3]uint32{202, 0, 50}),
			report(104, [3]uint32{103, 0, 50}, [3]uint32{101, 50, 50}, [3]uint32{150, 0, 50}),
			report(201, [3]uint32{101, 0, 50}, [3]uint32{202, 50, 50}, [3]uint32{250, 50, 50}),
			report(202, [3]uint32{201, 50, 50}, [3]uint32{103, 50, 0}),
			report(901, [3]uint32{902, 50, 50}, [3]uint32{101, 50, 0}, [3]uint32{950, 50, 50}),
			report(902, [3]uint32{901, 50, 50}, [3]uint32{950, 0, 50}, [3]uint32{902, 50, 50}),
		)
		checkAgainstReference(t, store, db)
	})
}
