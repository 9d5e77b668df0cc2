package protocol

import (
	"math/rand"
	"testing"

	"github.com/magellan-p2p/magellan/internal/isp"
)

func newTestTracker() *Tracker {
	return NewTracker(DefaultConfig(), rand.New(rand.NewSource(1)))
}

func TestTrackerJoinLeave(t *testing.T) {
	tr := newTestTracker()
	tr.Join("CCTV1", 10)
	tr.Join("CCTV1", 11)
	tr.Join("CCTV4", 12)
	if n := tr.MemberCount("CCTV1"); n != 2 {
		t.Errorf("MemberCount(CCTV1) = %d, want 2", n)
	}
	if n := tr.MemberCount("CCTV4"); n != 1 {
		t.Errorf("MemberCount(CCTV4) = %d, want 1", n)
	}
	tr.Leave("CCTV1", 10)
	if n := tr.MemberCount("CCTV1"); n != 1 {
		t.Errorf("after Leave, MemberCount = %d, want 1", n)
	}
	tr.Leave("CCTV1", 10) // idempotent
	if n := tr.MemberCount("CCTV1"); n != 1 {
		t.Errorf("double Leave changed count to %d", n)
	}
}

func TestTrackerAvailability(t *testing.T) {
	tr := newTestTracker()
	tr.Join("CCTV1", 10)
	tr.SetAvailable("CCTV1", 10, true)
	if n := tr.AvailableCount("CCTV1"); n != 1 {
		t.Errorf("AvailableCount = %d, want 1", n)
	}
	tr.SetAvailable("CCTV1", 10, false)
	if n := tr.AvailableCount("CCTV1"); n != 0 {
		t.Errorf("AvailableCount after unset = %d, want 0", n)
	}
	// Non-members cannot volunteer.
	tr.SetAvailable("CCTV1", 99, true)
	if n := tr.AvailableCount("CCTV1"); n != 0 {
		t.Errorf("non-member volunteered: AvailableCount = %d", n)
	}
	// Leaving clears availability.
	tr.SetAvailable("CCTV1", 10, true)
	tr.Leave("CCTV1", 10)
	if n := tr.AvailableCount("CCTV1"); n != 0 {
		t.Errorf("availability survived Leave: %d", n)
	}
}

func TestBootstrapPrefersAvailable(t *testing.T) {
	tr := newTestTracker()
	for i := Handle(1); i <= 100; i++ {
		tr.Join("CCTV1", i)
		if i <= 20 {
			tr.SetAvailable("CCTV1", i, true)
		}
	}
	got := tr.Bootstrap("CCTV1", 999, 10)
	if len(got) != 10 {
		t.Fatalf("Bootstrap returned %d, want 10", len(got))
	}
	for _, id := range got {
		if id > 20 {
			t.Errorf("bootstrap returned non-available peer %v while availability was plentiful", id)
		}
	}
}

func TestBootstrapPadsFromMembers(t *testing.T) {
	tr := newTestTracker()
	for i := Handle(1); i <= 30; i++ {
		tr.Join("CCTV1", i)
	}
	tr.SetAvailable("CCTV1", 1, true)
	got := tr.Bootstrap("CCTV1", 999, 10)
	if len(got) != 10 {
		t.Fatalf("Bootstrap returned %d, want 10 (padded from members)", len(got))
	}
	seen := make(map[Handle]bool)
	for _, id := range got {
		if seen[id] {
			t.Fatalf("duplicate %v in bootstrap set", id)
		}
		seen[id] = true
	}
}

func TestBootstrapExcludesSelf(t *testing.T) {
	tr := newTestTracker()
	for i := Handle(1); i <= 5; i++ {
		tr.Join("CCTV1", i)
		tr.SetAvailable("CCTV1", i, true)
	}
	for trial := 0; trial < 100; trial++ {
		for _, id := range tr.Bootstrap("CCTV1", 3, 10) {
			if id == 3 {
				t.Fatal("bootstrap returned the requester itself")
			}
		}
	}
}

func TestBootstrapDefaultsToMaxBootstrap(t *testing.T) {
	tr := newTestTracker()
	for i := Handle(1); i <= 200; i++ {
		tr.Join("CCTV1", i)
		tr.SetAvailable("CCTV1", i, true)
	}
	got := tr.Bootstrap("CCTV1", 999, 0)
	if len(got) != MaxBootstrap {
		t.Errorf("default bootstrap size = %d, want %d", len(got), MaxBootstrap)
	}
}

func TestBootstrapEmptyChannel(t *testing.T) {
	tr := newTestTracker()
	if got := tr.Bootstrap("EMPTY", 1, 10); len(got) != 0 {
		t.Errorf("bootstrap of empty channel returned %v", got)
	}
}

func TestBootstrapUniform(t *testing.T) {
	tr := newTestTracker()
	const n = 50
	for i := Handle(1); i <= n; i++ {
		tr.Join("CCTV1", i)
		tr.SetAvailable("CCTV1", i, true)
	}
	counts := make(map[Handle]int)
	const trials = 5000
	for trial := 0; trial < trials; trial++ {
		for _, id := range tr.Bootstrap("CCTV1", 999, 5) {
			counts[id]++
		}
	}
	// Every peer should be drawn roughly trials*5/n = 500 times.
	for i := Handle(1); i <= n; i++ {
		if counts[i] < 300 || counts[i] > 750 {
			t.Errorf("peer %v drawn %d times, want ≈ 500 (uniform)", i, counts[i])
		}
	}
}

func TestBootstrapLocalityBias(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LocalityBias = 0.8
	tr := NewTracker(cfg, rand.New(rand.NewSource(5)))
	// 30 Telecom peers (1..30) and 30 Netcom peers (31..60), all
	// available.
	for i := Handle(1); i <= 60; i++ {
		tr.Join("CCTV1", i)
		owner := isp.ChinaTelecom
		if i > 30 {
			owner = isp.ChinaNetcom
		}
		tr.SetISP(i, owner)
		tr.SetAvailable("CCTV1", i, true)
	}
	// A Telecom requester should get ≈ 80% Telecom candidates.
	tr.Join("CCTV1", 100)
	tr.SetISP(100, isp.ChinaTelecom)

	telecom, total := 0, 0
	for trial := 0; trial < 200; trial++ {
		for _, id := range tr.Bootstrap("CCTV1", 100, 10) {
			total++
			if id <= 30 {
				telecom++
			}
		}
	}
	frac := float64(telecom) / float64(total)
	// 80% biased slots plus half of the unbiased remainder ≈ 0.9.
	if frac < 0.75 {
		t.Errorf("telecom fraction = %.2f under bias 0.8, want high", frac)
	}
	// And without bias the same split is ≈ 0.5.
	unbiased := NewTracker(DefaultConfig(), rand.New(rand.NewSource(5)))
	for i := Handle(1); i <= 60; i++ {
		unbiased.Join("CCTV1", i)
		unbiased.SetAvailable("CCTV1", i, true)
	}
	telecom, total = 0, 0
	for trial := 0; trial < 200; trial++ {
		for _, id := range unbiased.Bootstrap("CCTV1", 100, 10) {
			total++
			if id <= 30 {
				telecom++
			}
		}
	}
	if f := float64(telecom) / float64(total); f < 0.4 || f > 0.6 {
		t.Errorf("unbiased telecom fraction = %.2f, want ≈ 0.5", f)
	}
}

func TestBootstrapLocalityBiasNoDuplicates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LocalityBias = 1.0
	tr := NewTracker(cfg, rand.New(rand.NewSource(6)))
	for i := Handle(1); i <= 8; i++ {
		tr.Join("CCTV1", i)
		tr.SetISP(i, isp.ChinaTelecom)
		tr.SetAvailable("CCTV1", i, true)
	}
	tr.Join("CCTV1", 100)
	tr.SetISP(100, isp.ChinaTelecom)
	for trial := 0; trial < 100; trial++ {
		got := tr.Bootstrap("CCTV1", 100, 8)
		seen := make(map[Handle]bool, len(got))
		for _, id := range got {
			if seen[id] {
				t.Fatalf("duplicate %v in biased bootstrap", id)
			}
			if id == 100 {
				t.Fatal("requester returned to itself")
			}
			seen[id] = true
		}
	}
}

func TestSetISPIgnoredWithoutBias(t *testing.T) {
	tr := newTestTracker() // LocalityBias 0
	tr.Join("CCTV1", 1)
	tr.SetISP(1, isp.ChinaTelecom)
	tr.SetAvailable("CCTV1", 1, true)
	// No crash, no per-ISP bookkeeping; bootstrap still works.
	if got := tr.Bootstrap("CCTV1", 2, 5); len(got) != 1 {
		t.Errorf("bootstrap = %v, want the one available peer", got)
	}
}

func TestLocalitySelectionBias(t *testing.T) {
	tab := NewTable(0)
	cfg := DefaultConfig()
	p := testPeer(tab, 1, "CCTV1")
	p.LocalityBias = 2 // triple same-ISP scores
	intra := testPeer(tab, 2, "CCTV1")
	inter := testPeer(tab, 3, "CCTV1")
	// The inter-ISP link is twice as fast, but the bias must outweigh it.
	linkIntra := testLink(400)
	linkIntra.SameISP = true
	linkInter := testLink(800)
	Connect(p, intra, linkIntra, cfg)
	Connect(p, inter, linkInter, cfg)
	top := p.RankSuppliers(nil, 1)
	if len(top) != 1 {
		t.Fatalf("RankSuppliers(1) returned %d partners", len(top))
	}
	if top[0].Pt.ID != intra.ID() {
		t.Errorf("biased RankSuppliers ranked %v first, want the same-ISP partner", top[0].Pt.ID)
	}
	// Without bias, raw quality wins. Scores freeze when a partnership
	// forms, so the unbiased case needs its own peer: the sim fixes
	// LocalityBias before any connect and never changes it afterwards.
	q := testPeer(tab, 4, "CCTV1")
	Connect(q, intra, linkIntra, cfg)
	Connect(q, inter, linkInter, cfg)
	top = q.RankSuppliers(top[:0], 1)
	if len(top) != 1 {
		t.Fatalf("RankSuppliers(1) returned %d partners", len(top))
	}
	if top[0].Pt.ID != inter.ID() {
		t.Errorf("unbiased RankSuppliers ranked %v first, want the faster link", top[0].Pt.ID)
	}
}

func TestChannels(t *testing.T) {
	tr := newTestTracker()
	tr.Join("A", 1)
	tr.Join("B", 2)
	tr.Leave("B", 2)
	chans := tr.Channels()
	if len(chans) != 1 || chans[0] != "A" {
		t.Errorf("Channels() = %v, want [A]", chans)
	}
}

func TestHandleSetDrawRejectionPath(t *testing.T) {
	tr := newTestTracker()
	s := newHandleSet()
	for h := Handle(1); h <= 1000; h++ {
		tr.cover(h)
		s.add(h)
	}
	// Handles stamped at the current generation (the requester 5 and
	// earlier draws 6 and 7) are excluded from the draw.
	tr.gen = 1
	tr.stamp[5], tr.stamp[6], tr.stamp[7] = 1, 1, 1
	tr.draw(s, 10)
	got := tr.bootOut
	if len(got) != 10 {
		t.Fatalf("draw returned %d handles, want 10", len(got))
	}
	seen := make(map[Handle]bool)
	for _, h := range got {
		if h == 5 || h == 6 || h == 7 {
			t.Errorf("excluded handle %v sampled", h)
		}
		if seen[h] {
			t.Errorf("duplicate %v", h)
		}
		seen[h] = true
	}
}

func TestHandleSetRemoveSwaps(t *testing.T) {
	s := newHandleSet()
	for h := Handle(1); h <= 5; h++ {
		s.add(h)
	}
	s.add(3) // duplicate add is a no-op
	if s.len() != 5 {
		t.Fatalf("len = %d, want 5", s.len())
	}
	s.remove(3)
	s.remove(3)
	if s.len() != 4 || s.contains(3) {
		t.Errorf("remove failed: len=%d contains(3)=%v", s.len(), s.contains(3))
	}
	for _, want := range []Handle{1, 2, 4, 5} {
		if !s.contains(want) {
			t.Errorf("lost member %v after swap-remove", want)
		}
	}
}
