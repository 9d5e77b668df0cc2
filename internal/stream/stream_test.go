package stream

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/allocguard"
	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/netsim"
	"github.com/magellan-p2p/magellan/internal/protocol"
)

var _t0 = time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC)

type mesh struct {
	tab   *protocol.Table
	peers []*protocol.Peer
}

func newMesh() *mesh {
	return &mesh{tab: protocol.NewTable(8)}
}

func (m *mesh) add(addr uint32, upKbps float64, server bool) *protocol.Peer {
	host := netsim.Host{
		Addr: isp.Addr(addr),
		ISP:  isp.ChinaTelecom,
		Cap:  netsim.Capacity{UpKbps: upKbps, DownKbps: 8 * upKbps},
	}
	rate := 400.0
	if server {
		rate = 0
	}
	p := m.tab.Add(host, 10000, "CCTV1", rate, _t0)
	if server {
		p.MarkServer()
	}
	m.peers = append(m.peers, p)
	return p
}

func (m *mesh) connect(a, b *protocol.Peer, capKbps float64) {
	link := netsim.Link{RTT: 30 * time.Millisecond, CapacityKbps: capKbps}
	if !protocol.Connect(a, b, link, protocol.DefaultConfig()) {
		panic("connect failed in test setup")
	}
}

func newExchange(mode Mode) *Exchange {
	return NewExchange(Config{Mode: mode}, rand.New(rand.NewSource(1)))
}

func TestSegmentConversions(t *testing.T) {
	// 400 kbps for one second is 5 segments of 10 KB.
	if got := SegOf(400, time.Second); math.Abs(got-5) > 1e-9 {
		t.Errorf("SegOf(400, 1s) = %v, want 5", got)
	}
	if got := KbpsOf(5, time.Second); math.Abs(got-400) > 1e-9 {
		t.Errorf("KbpsOf(5, 1s) = %v, want 400", got)
	}
	if got := KbpsOf(5, 0); got != 0 {
		t.Errorf("KbpsOf over zero duration = %v, want 0", got)
	}
	// Round trip.
	for _, kbps := range []float64{56, 400, 1024, 8192} {
		seg := SegOf(kbps, time.Minute)
		if back := KbpsOf(seg, time.Minute); math.Abs(back-kbps) > 1e-6 {
			t.Errorf("round trip %v kbps → %v", kbps, back)
		}
	}
}

func TestSingleSupplierServesDemand(t *testing.T) {
	m := newMesh()
	server := m.add(1, 8000, true)
	p := m.add(2, 448, false)
	m.connect(p, server, 4000)

	// SpreadFraction 1 lets one supplier carry the whole stream, which
	// isolates the capacity/allocation path from request striping.
	e := NewExchange(Config{SpreadFraction: 1}, rand.New(rand.NewSource(1)))
	e.Tick(m.tab, m.peers, time.Minute)

	demand := SegOf(400, time.Minute)
	if math.Abs(p.TickRecvSeg()-demand*1.2) > demand*0.25 {
		t.Errorf("received %.1f seg, want ≈ demand*overrequest %.1f", p.TickRecvSeg(), demand*1.2)
	}
	if p.QualityEWMA() < 0.9 {
		t.Errorf("quality EWMA %.3f after a fully-served tick, want high", p.QualityEWMA())
	}
	if p.LastRecvKbps() < 350 {
		t.Errorf("LastRecvKbps = %.1f, want ≈ 400+", p.LastRecvKbps())
	}
	if server.LastSentKbps() <= 0 {
		t.Error("server recorded no sending throughput")
	}
}

func TestSpreadFractionStripesAcrossSuppliers(t *testing.T) {
	m := newMesh()
	p := m.add(1, 448, false)
	for i := uint32(2); i <= 13; i++ {
		s := m.add(i, 5120, false)
		m.connect(p, s, 4000)
	}
	e := newExchange(ModeMesh) // default SpreadFraction 0.15
	for i := 0; i < 3; i++ {
		e.Tick(m.tab, m.peers, time.Minute)
	}
	suppliers := 0
	demand := SegOf(400, time.Minute)
	p.Partners(func(pt *protocol.Partner) {
		if pt.WinRecv > 0 {
			suppliers++
			if pt.WinRecv > 3*demand*0.15*1.01 { // 3 ticks, capped per tick
				t.Errorf("supplier %v delivered %.1f seg, above the per-supplier stripe", pt.ID, pt.WinRecv)
			}
		}
	})
	// 1.2/0.15 = 8 suppliers needed to cover demand.
	if suppliers < 6 {
		t.Errorf("striping engaged only %d suppliers, want ≈ 8", suppliers)
	}
	if p.QualityEWMA() < 0.8 {
		t.Errorf("striped receiver quality %.2f, want served", p.QualityEWMA())
	}
}

func TestCountersMatchBothSides(t *testing.T) {
	m := newMesh()
	server := m.add(1, 8000, true)
	p := m.add(2, 448, false)
	m.connect(p, server, 4000)

	e := newExchange(ModeMesh)
	e.Tick(m.tab, m.peers, time.Minute)

	sent := server.Partner(p.ID()).WinSent
	recv := p.Partner(server.ID()).WinRecv
	if sent != recv {
		t.Errorf("supplier WinSent %.2f != receiver WinRecv %.2f", sent, recv)
	}
	if sent <= 0 {
		t.Error("no segments flowed")
	}
}

func TestUploadBudgetIsConserved(t *testing.T) {
	m := newMesh()
	s := m.add(1, 448, false) // modest uploader
	var receivers []*protocol.Peer
	for i := uint32(2); i <= 21; i++ {
		p := m.add(i, 448, false)
		m.connect(p, s, 4000)
		receivers = append(receivers, p)
	}
	e := newExchange(ModeMesh)
	e.Tick(m.tab, m.peers, time.Minute)

	budget := SegOf(448, time.Minute)
	if s.TickSentSeg() > budget*1.0001 {
		t.Errorf("supplier sent %.1f seg, budget %.1f — capacity violated", s.TickSentSeg(), budget)
	}
	var sum float64
	for _, r := range receivers {
		sum += r.Partner(s.ID()).WinRecv
	}
	// Everything the supplier sent landed at receivers (ignoring what
	// receivers pulled from each other, which flows through s too).
	if sum > s.TickSentSeg()+1e-6 {
		t.Errorf("receivers got %.2f seg from s but s only sent %.2f", sum, s.TickSentSeg())
	}
}

func TestWaterFillIsFair(t *testing.T) {
	m := newMesh()
	s := m.add(1, 800, false)
	a := m.add(2, 448, false)
	b := m.add(3, 448, false)
	m.connect(a, s, 4000)
	m.connect(b, s, 4000)

	e := newExchange(ModeMesh)
	// Run several ticks so the share estimate converges.
	for i := 0; i < 5; i++ {
		e.Tick(m.tab, m.peers, time.Minute)
	}
	ra := a.Partner(s.ID()).WinRecv
	rb := b.Partner(s.ID()).WinRecv
	if ra == 0 || rb == 0 {
		t.Fatalf("a receiver starved: %.2f, %.2f", ra, rb)
	}
	ratio := ra / rb
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("allocation ratio %.2f between equal receivers, want near 1", ratio)
	}
}

func TestQualityDegradesUnderOversubscription(t *testing.T) {
	m := newMesh()
	s := m.add(1, 448, false) // one ADSL uploader serving many
	var receivers []*protocol.Peer
	for i := uint32(2); i <= 11; i++ {
		p := m.add(i, 448, false)
		m.connect(p, s, 4000)
		receivers = append(receivers, p)
	}
	e := newExchange(ModeMesh)
	for i := 0; i < 10; i++ {
		e.Tick(m.tab, m.peers, time.Minute)
	}
	// 448 kbps across 10 receivers needing 400 each: quality must be low.
	for _, r := range receivers {
		if r.QualityEWMA() > 0.5 {
			t.Errorf("receiver %v quality %.2f despite 9x oversubscription", r.ID(), r.QualityEWMA())
		}
	}
}

func TestNoPartnersMeansStarvation(t *testing.T) {
	m := newMesh()
	p := m.add(1, 448, false)
	e := newExchange(ModeMesh)
	for i := 0; i < 20; i++ {
		e.Tick(m.tab, m.peers, time.Minute)
	}
	if p.QualityEWMA() > 0.01 {
		t.Errorf("isolated peer quality %.3f, want ≈ 0", p.QualityEWMA())
	}
	if p.TickRecvSeg() != 0 {
		t.Error("isolated peer received segments")
	}
}

func TestDepartedPartnerSkipped(t *testing.T) {
	m := newMesh()
	s := m.add(1, 8000, true)
	p := m.add(2, 448, false)
	m.connect(p, s, 4000)
	// s departs: Remove tears the edge down on p's side too.
	m.tab.Remove(s)
	live := []*protocol.Peer{p}
	e := newExchange(ModeMesh)
	e.Tick(m.tab, live, time.Minute)
	if p.TickRecvSeg() != 0 {
		t.Errorf("received %.2f seg from departed partner", p.TickRecvSeg())
	}
}

func TestMeshReciprocity(t *testing.T) {
	// Two well-provisioned peers that partner with each other must end up
	// exchanging in both directions — the paper's core reciprocity
	// mechanism.
	m := newMesh()
	server := m.add(1, 2000, true)
	a := m.add(2, 1000, false)
	b := m.add(3, 1000, false)
	m.connect(a, server, 1000)
	m.connect(b, server, 1000)
	m.connect(a, b, 4000)

	e := newExchange(ModeMesh)
	for i := 0; i < 5; i++ {
		e.Tick(m.tab, m.peers, time.Minute)
	}
	ab := a.Partner(b.ID()).WinSent
	ba := b.Partner(a.ID()).WinSent
	if ab <= 0 || ba <= 0 {
		t.Errorf("no bilateral exchange: a→b %.2f, b→a %.2f", ab, ba)
	}
}

func TestTreePushForbidsUpstreamFlow(t *testing.T) {
	m := newMesh()
	server := m.add(1, 4000, true)
	a := m.add(2, 1000, false)
	b := m.add(3, 1000, false)
	m.connect(a, server, 2000)
	m.connect(a, b, 4000) // b reaches the stream only through a

	ComputeDepths(m.tab, m.peers)
	if a.Depth() != 1 || b.Depth() != 2 || server.Depth() != 0 {
		t.Fatalf("depths = server %d, a %d, b %d; want 0, 1, 2", server.Depth(), a.Depth(), b.Depth())
	}

	e := newExchange(ModeTreePush)
	for i := 0; i < 5; i++ {
		e.Tick(m.tab, m.peers, time.Minute)
	}
	if up := b.Partner(a.ID()).WinSent; up > 0 {
		t.Errorf("tree mode let b send %.2f seg upstream to a", up)
	}
	if down := a.Partner(b.ID()).WinSent; down <= 0 {
		t.Error("tree mode blocked the downstream flow too")
	}
}

func TestComputeDepthsUnreachable(t *testing.T) {
	m := newMesh()
	m.add(1, 4000, true)
	isolated := m.add(2, 448, false)
	ComputeDepths(m.tab, m.peers)
	if isolated.Depth() != protocol.MaxDepth {
		t.Errorf("isolated peer depth = %d, want MaxDepth", isolated.Depth())
	}
}

func TestTickDeterminism(t *testing.T) {
	run := func() float64 {
		m := newMesh()
		server := m.add(1, 8000, true)
		for i := uint32(2); i <= 30; i++ {
			p := m.add(i, 448, false)
			m.connect(p, server, 2000)
			if i > 2 {
				m.connect(p, m.tab.Lookup(isp.Addr(i-1)), 3000)
			}
		}
		e := newExchange(ModeMesh)
		for i := 0; i < 10; i++ {
			e.Tick(m.tab, m.peers, time.Minute)
		}
		var sum float64
		for _, p := range m.peers {
			sum += p.TickRecvSeg() * float64(p.ID())
		}
		return sum
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical seeds diverged: %v != %v", a, b)
	}
}

func TestConfigSanitize(t *testing.T) {
	e := NewExchange(Config{}, rand.New(rand.NewSource(1)))
	if e.cfg.Mode != ModeMesh {
		t.Errorf("default mode = %v, want ModeMesh", e.cfg.Mode)
	}
}

// TestExchangeTickZeroAllocs pins the sequential mesh tick's steady
// state: on a warm mesh every phase reuses the exchange's scratch, and
// the phase kernels are plain functions, so no closure escapes.
func TestExchangeTickZeroAllocs(t *testing.T) {
	tab, peers := buildSwarm(252, 20, 5) // 252 peers and 4 servers
	e := NewExchange(Config{Shards: 1}, rand.New(rand.NewSource(3)))
	tick := func() { e.Tick(tab, peers, time.Minute) }
	// Warm the scratch. Each position's request buffer is created at
	// its final capacity, TargetActive, and the grant array doubles when
	// it must grow, so the swarm allocates nothing from its fourth tick on.
	for i := 0; i < 4; i++ {
		tick()
	}
	if n := allocguard.Count(50, tick); n != 0 {
		t.Errorf("Exchange.Tick allocates %d objects over 50 warm ticks, want 0", n)
	}
}
