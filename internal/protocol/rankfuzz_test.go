package protocol

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/netsim"
)

// edgeModel is the fuzz oracle: an independent adjacency matrix of the
// partnerships the table should hold, with each side's selection score.
type edgeModel struct {
	cfg   Config
	on    [][]bool
	score [][]float64
}

func newEdgeModel(n int, cfg Config) *edgeModel {
	m := &edgeModel{cfg: cfg}
	for i := 0; i < n; i++ {
		m.on = append(m.on, make([]bool, n))
		m.score = append(m.score, make([]float64, n))
	}
	return m
}

func (m *edgeModel) degree(i int) int {
	d := 0
	for _, on := range m.on[i] {
		if on {
			d++
		}
	}
	return d
}

// connectable predicts Connect's verdict for peers i and j.
func (m *edgeModel) connectable(i, j int) bool {
	return i != j && !m.on[i][j] && m.degree(i) < m.cfg.MaxPartners && m.degree(j) < m.cfg.MaxPartners
}

func (m *edgeModel) connect(i, j int, link netsim.Link, bias float64) {
	s := link.Score()
	if link.SameISP {
		s *= 1 + bias
	}
	m.on[i][j], m.on[j][i] = true, true
	m.score[i][j], m.score[j][i] = s, s
}

// ranked returns i's partners in supplier order: score desc, ID asc.
// Peer j has address j+1.
func (m *edgeModel) ranked(i int) []Ranked {
	var out []Ranked
	for j, on := range m.on[i] {
		if on {
			out = append(out, Ranked{Pt: &Partner{ID: isp.Addr(j + 1)}, Score: m.score[i][j]})
		}
	}
	slices.SortFunc(out, func(a, b Ranked) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		case a.Pt.ID < b.Pt.ID:
			return -1
		case a.Pt.ID > b.Pt.ID:
			return 1
		}
		return 0
	})
	return out
}

// checkPeer compares peer i's observable partner state with the model:
// PartnerCount, PartnerIDs in ascending order, the Partners walk,
// RankSuppliers at several depths against the brute-force ranking, and
// edge symmetry through each far handle and reciprocal slot.
func checkPeer(t *testing.T, tab *Table, p *Peer, m *edgeModel, i, step int) {
	t.Helper()
	want := m.ranked(i)
	if got := p.PartnerCount(); got != len(want) {
		t.Fatalf("step %d peer %v: PartnerCount %d, model %d", step, p.ID(), got, len(want))
	}
	wantIDs := make([]isp.Addr, len(want))
	for k, r := range want {
		wantIDs[k] = r.Pt.ID
	}
	slices.Sort(wantIDs)
	if got := p.PartnerIDs(); !slices.Equal(got, wantIDs) {
		t.Fatalf("step %d peer %v: PartnerIDs %v, model %v", step, p.ID(), got, wantIDs)
	}
	k := 0
	p.Partners(func(pt *Partner) {
		if pt.ID != wantIDs[k] {
			t.Fatalf("step %d peer %v: Partners walk[%d] = %v, want %v", step, p.ID(), k, pt.ID, wantIDs[k])
		}
		k++
		q := tab.Peer(pt.Handle())
		if q == nil || q != tab.Lookup(pt.ID) || q.Handle() != pt.Handle() {
			t.Fatalf("step %d peer %v: partner %v's handle does not resolve to its live peer", step, p.ID(), pt.ID)
		}
		back := q.Slot(pt.Recip())
		if !q.edges[pt.Recip()].live || back.Handle() != p.Handle() || back.ID != p.ID() ||
			tab.Peer(back.Handle()).Slot(back.Recip()) != pt {
			t.Fatalf("step %d peer %v: edge to %v is not symmetric through its handles and reciprocal slots",
				step, p.ID(), pt.ID)
		}
	})
	for _, depth := range []int{1, 16, len(want) + 1} {
		got := p.RankSuppliers(nil, depth)
		exp := want[:min(depth, len(want))]
		if len(got) != len(exp) {
			t.Fatalf("step %d peer %v: RankSuppliers(%d) returned %d, want %d", step, p.ID(), depth, len(got), len(exp))
		}
		for r := range got {
			if got[r].Pt.ID != exp[r].Pt.ID || got[r].Score != exp[r].Score {
				t.Fatalf("step %d peer %v: RankSuppliers(%d)[%d] = (%v, %v), want (%v, %v)",
					step, p.ID(), depth, r, got[r].Pt.ID, got[r].Score, exp[r].Pt.ID, exp[r].Score)
			}
		}
	}
}

// TestRankWindowFuzz drives a small population through randomized
// connect/disconnect/depart churn and checks every peer the operation
// touched against an independent edge model: partner counts, ascending
// ID reads, the supplier ranking, and edge symmetry. Scores mix a
// locality multiplier, and half the links come from a small discrete
// set so exact score ties — where the ID tie-break decides the
// ranking — are common.
func TestRankWindowFuzz(t *testing.T) {
	const n = 48
	const bias = 0.8
	rng := rand.New(rand.NewSource(99))
	cfg := DefaultConfig()
	cfg.MaxPartners = 40 // deep lists, and some refusals at the cap

	tab := NewTable(n)
	now := time.Unix(0, 0)
	m := newEdgeModel(n, cfg)
	var peers []*Peer
	join := func(i int) *Peer {
		host := netsim.Host{Addr: isp.Addr(i + 1), Cap: netsim.Capacity{UpKbps: 1000, DownKbps: 2000}}
		p := tab.Add(host, 0, "CCTV1", 500, now)
		p.LocalityBias = bias
		return p
	}
	for i := 0; i < n; i++ {
		peers = append(peers, join(i))
	}
	index := func(p *Peer) int { return int(p.ID()) - 1 }

	link := func() netsim.Link {
		if rng.Intn(2) == 0 {
			return netsim.Link{RTT: time.Duration(1+rng.Intn(3)) * 20 * time.Millisecond,
				CapacityKbps: float64(1+rng.Intn(3)) * 400, SameISP: rng.Intn(2) == 0}
		}
		return netsim.Link{RTT: time.Duration(1+rng.Intn(200)) * time.Millisecond,
			CapacityKbps: 200 + rng.Float64()*2000, SameISP: rng.Intn(2) == 0}
	}
	connect := func(i, j int, step int) {
		l := link()
		want := m.connectable(i, j)
		if got := Connect(peers[i], peers[j], l, cfg, now); got != want {
			t.Fatalf("step %d: Connect(%d, %d) = %v, model says %v", step, i+1, j+1, got, want)
		}
		if want {
			m.connect(i, j, l, bias)
		}
	}
	// disconnectRandom tears down one random edge of peer i and returns
	// the far peer's index.
	disconnectRandom := func(i int) int {
		p := peers[i]
		j := index(tab.Lookup(p.PartnerIDAt(rng.Intn(p.PartnerCount()))))
		Disconnect(p, peers[j])
		m.on[i][j], m.on[j][i] = false, false
		return j
	}

	touched := make([]bool, n)
	for step := 0; step < 12000; step++ {
		clear(touched)
		i := rng.Intn(n)
		touched[i] = true
		switch op := rng.Intn(12); {
		case op < 6: // bootstrap burst, as the sim's tracker bootstrap does
			for c := 0; c < 20; c++ {
				j := rng.Intn(n)
				connect(i, j, step)
				touched[j] = true
			}
		case op < 9: // tear down one random live edge
			if peers[i].PartnerCount() > 0 {
				touched[disconnectRandom(i)] = true
			}
		case op < 11: // drain burst: one peer loses most of its edges
			for peers[i].PartnerCount() > 4 {
				touched[disconnectRandom(i)] = true
			}
		default: // departure (Remove tears every edge down) and rejoin
			for j, on := range m.on[i] {
				if on {
					touched[j] = true
					m.on[i][j], m.on[j][i] = false, false
				}
			}
			tab.Remove(peers[i])
			peers[i] = join(i)
		}
		for j, p := range peers {
			if touched[j] || step%1000 == 0 {
				checkPeer(t, tab, p, m, j, step)
			}
		}
	}
}
