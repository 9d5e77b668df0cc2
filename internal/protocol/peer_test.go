package protocol

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
	"unsafe"

	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/netsim"
)

var _t0 = time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC)

// testPeer adds a peer to the test's table: partners are addressed by
// handle, so peers that connect must share one.
func testPeer(tab *Table, addr uint32, channel string) *Peer {
	host := netsim.Host{
		Addr: isp.Addr(addr),
		ISP:  isp.ChinaTelecom,
		Cap:  netsim.Capacity{UpKbps: 448, DownKbps: 2048},
	}
	return tab.Add(host, 12345, channel, 400, _t0)
}

func testLink(scoreKbps float64) netsim.Link {
	return netsim.Link{RTT: 50 * time.Millisecond, CapacityKbps: scoreKbps}
}

func TestConnectEstablishesBothSides(t *testing.T) {
	tab := NewTable(0)
	cfg := DefaultConfig()
	p, q := testPeer(tab, 1, "CCTV1"), testPeer(tab, 2, "CCTV1")
	if !Connect(p, q, testLink(500), cfg) {
		t.Fatal("Connect failed")
	}
	if !p.HasPartner(q.ID()) || !q.HasPartner(p.ID()) {
		t.Error("partnership not symmetric")
	}
	if p.PartnerCount() != 1 || q.PartnerCount() != 1 {
		t.Errorf("partner counts = %d, %d; want 1, 1", p.PartnerCount(), q.PartnerCount())
	}
	if p.Partner(q.ID()).Port != q.Port {
		t.Error("partner record missing port")
	}
}

func TestConnectRejections(t *testing.T) {
	tab := NewTable(0)
	cfg := DefaultConfig()
	p := testPeer(tab, 1, "CCTV1")
	q := testPeer(tab, 2, "CCTV1")
	other := testPeer(tab, 3, "CCTV4")

	if Connect(p, p, testLink(500), cfg) {
		t.Error("self-connection accepted")
	}
	if Connect(nil, p, testLink(500), cfg) || Connect(p, nil, testLink(500), cfg) {
		t.Error("nil peer accepted")
	}
	if Connect(p, other, testLink(500), cfg) {
		t.Error("cross-channel connection accepted")
	}
	// A partner entry names its far side by handle, which only means
	// something in the table both peers share.
	stranger := testPeer(NewTable(0), 4, "CCTV1")
	if Connect(p, stranger, testLink(500), cfg) || Connect(stranger, p, testLink(500), cfg) {
		t.Error("connection across two tables accepted")
	}
	if p.PartnerCount() != 0 || stranger.PartnerCount() != 0 {
		t.Errorf("refused connections left partners: %d, %d", p.PartnerCount(), stranger.PartnerCount())
	}
	if !Connect(p, q, testLink(500), cfg) {
		t.Fatal("valid connect failed")
	}
	if Connect(p, q, testLink(500), cfg) {
		t.Error("duplicate connection accepted")
	}
}

func TestConnectServerCrossesChannels(t *testing.T) {
	tab := NewTable(0)
	cfg := DefaultConfig()
	server := testPeer(tab, 100, "")
	server.MarkServer()
	p := testPeer(tab, 1, "CCTV1")
	if !Connect(p, server, testLink(5000), cfg) {
		t.Error("server connection refused")
	}
}

func TestConnectRespectsMaxPartners(t *testing.T) {
	tab := NewTable(0)
	cfg := DefaultConfig()
	cfg.MaxPartners = 3
	p := testPeer(tab, 1, "CCTV1")
	for i := 2; i <= 4; i++ {
		if !Connect(p, testPeer(tab, uint32(i), "CCTV1"), testLink(500), cfg) {
			t.Fatalf("connect %d failed below cap", i)
		}
	}
	if Connect(p, testPeer(tab, 99, "CCTV1"), testLink(500), cfg) {
		t.Error("connection accepted beyond MaxPartners")
	}
	server := testPeer(tab, 200, "")
	server.MarkServer()
	for i := 0; i < 5; i++ {
		q := testPeer(tab, uint32(300+i), "CCTV1")
		if !Connect(q, server, testLink(500), cfg) {
			t.Error("server refused connection (servers always accept)")
		}
	}
}

func TestDisconnect(t *testing.T) {
	tab := NewTable(0)
	cfg := DefaultConfig()
	p, q := testPeer(tab, 1, "CCTV1"), testPeer(tab, 2, "CCTV1")
	Connect(p, q, testLink(500), cfg)
	Disconnect(p, q)
	if p.HasPartner(q.ID()) || q.HasPartner(p.ID()) {
		t.Error("Disconnect left a side connected")
	}
	Disconnect(p, q) // idempotent
	Disconnect(nil, q)
}

func TestPartnerIDsSorted(t *testing.T) {
	tab := NewTable(0)
	cfg := DefaultConfig()
	p := testPeer(tab, 1, "CCTV1")
	var twenty *Peer
	for _, a := range []uint32{50, 3, 999, 20, 7} {
		q := testPeer(tab, a, "CCTV1")
		if a == 20 {
			twenty = q
		}
		Connect(p, q, testLink(500), cfg)
	}
	ids := p.PartnerIDs()
	if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
		t.Errorf("PartnerIDs not sorted: %v", ids)
	}
	Disconnect(p, twenty)
	ids = p.PartnerIDs()
	if len(ids) != 4 {
		t.Fatalf("after removal len = %d, want 4", len(ids))
	}
	for _, id := range ids {
		if id == 20 {
			t.Error("removed ID still listed")
		}
	}
}

func TestTopSuppliersRankedByScore(t *testing.T) {
	tab := NewTable(0)
	cfg := DefaultConfig()
	p := testPeer(tab, 1, "CCTV1")
	scores := map[uint32]float64{10: 100, 11: 900, 12: 500, 13: 700, 14: 300}
	for a, s := range scores {
		q := testPeer(tab, a, "CCTV1")
		if !Connect(p, q, testLink(s), cfg) {
			t.Fatal("connect failed")
		}
	}
	top := p.RankSuppliers(nil, 3)
	if len(top) != 3 {
		t.Fatalf("RankSuppliers returned %d, want 3", len(top))
	}
	want := []isp.Addr{11, 13, 12}
	for i, r := range top {
		if r.Pt.ID != want[i] {
			t.Errorf("rank %d = %v, want %v", i, r.Pt.ID, want[i])
		}
	}
	if got := p.RankSuppliers(nil, 100); len(got) != 5 {
		t.Errorf("RankSuppliers(100) = %d partners, want all 5", len(got))
	}
}

func TestTopSuppliersTieBreakByID(t *testing.T) {
	tab := NewTable(0)
	cfg := DefaultConfig()
	p := testPeer(tab, 1, "CCTV1")
	for _, a := range []uint32{30, 10, 20} {
		Connect(p, testPeer(tab, a, "CCTV1"), testLink(400), cfg)
	}
	top := p.RankSuppliers(nil, 3)
	if len(top) != 3 {
		t.Fatalf("RankSuppliers returned %d, want 3", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].Pt.ID > top[i].Pt.ID {
			t.Errorf("equal scores not ID-ordered: %v", []isp.Addr{top[0].Pt.ID, top[1].Pt.ID, top[2].Pt.ID})
		}
	}
}

// TestResetWindowClearsWindowCounters checks that a report's reset
// clears only the window counters: the edge itself is untouched.
func TestResetWindowClearsWindowCounters(t *testing.T) {
	tab := NewTable(0)
	cfg := DefaultConfig()
	p, q := testPeer(tab, 1, "CCTV1"), testPeer(tab, 2, "CCTV1")
	Connect(p, q, testLink(500), cfg)
	pt := p.Partner(q.ID())
	pt.WinRecv, pt.WinSent = 42, 17
	p.ResetWindow()
	if pt.WinRecv != 0 || pt.WinSent != 0 {
		t.Error("window counters not reset")
	}
	if pt.ID != q.ID() || pt.Port != q.Port || pt.CapacityKbps != 500 || pt.Handle() != q.Handle() {
		t.Errorf("reset changed the edge: %+v", *pt)
	}
}

func TestUpdateQuality(t *testing.T) {
	tab := NewTable(0)
	p := testPeer(tab, 1, "CCTV1")
	p.SetQualityEWMA(1)
	for i := 0; i < 50; i++ {
		p.UpdateQuality(0)
	}
	if p.QualityEWMA() > 0.01 {
		t.Errorf("EWMA after sustained starvation = %.3f, want ≈ 0", p.QualityEWMA())
	}
	for i := 0; i < 50; i++ {
		p.UpdateQuality(5) // capped at 1
	}
	if p.QualityEWMA() > 1.0001 {
		t.Errorf("EWMA exceeded 1: %.3f", p.QualityEWMA())
	}
}

func TestSpareUploadKbps(t *testing.T) {
	tab := NewTable(0)
	p := testPeer(tab, 1, "CCTV1")
	p.SetLastSentKbps(100)
	if got := p.SpareUploadKbps(); got != 348 {
		t.Errorf("SpareUploadKbps = %v, want 348", got)
	}
	p.SetLastSentKbps(1000)
	if got := p.SpareUploadKbps(); got != 0 {
		t.Errorf("oversubscribed spare = %v, want 0", got)
	}
}

func TestRecommendExcludesRequester(t *testing.T) {
	tab := NewTable(0)
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	p := testPeer(tab, 1, "CCTV1")
	for i := 2; i <= 12; i++ {
		Connect(p, testPeer(tab, uint32(i), "CCTV1"), testLink(500), cfg)
	}
	for trial := 0; trial < 50; trial++ {
		rec := p.Recommend(rng, isp.Addr(5), 4)
		if len(rec) != 4 {
			t.Fatalf("Recommend returned %d, want 4", len(rec))
		}
		seen := make(map[isp.Addr]bool)
		for _, id := range rec {
			if id == 5 {
				t.Fatal("requester recommended to itself")
			}
			if seen[id] {
				t.Fatal("duplicate recommendation")
			}
			seen[id] = true
		}
	}
}

func TestRecommendFewPartners(t *testing.T) {
	tab := NewTable(0)
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	p := testPeer(tab, 1, "CCTV1")
	Connect(p, testPeer(tab, 2, "CCTV1"), testLink(500), cfg)
	if rec := p.Recommend(rng, 99, 5); len(rec) != 1 {
		t.Errorf("Recommend = %d IDs, want 1", len(rec))
	}
	if rec := p.Recommend(rng, 2, 5); len(rec) != 0 {
		t.Errorf("Recommend excluding only partner = %d IDs, want 0", len(rec))
	}
}

// TestChurnZeroAllocs pins the churn plane's steady state: on a warm
// table, a departure's teardown, a join's bootstrap connects, a supplier
// ranking into caller storage and a report's partner walk all reuse
// storage the table already holds.
func TestChurnZeroAllocs(t *testing.T) {
	cfg := DefaultConfig()
	tab := NewTable(256)
	var peers []*Peer
	for i := 0; i < 256; i++ {
		host := netsim.Host{Addr: isp.Addr(i + 1), Cap: netsim.Capacity{UpKbps: 448, DownKbps: 2048}}
		peers = append(peers, tab.Add(host, 0, "CCTV1", 400, _t0))
	}
	rng := rand.New(rand.NewSource(7))
	var ranked [32]Ranked
	var sink float64
	next := 0
	cycle := func() {
		p := peers[next%len(peers)]
		next++
		DisconnectAll(p)
		for c := 0; c < 50; c++ {
			Connect(p, peers[rng.Intn(len(peers))], testLink(200+rng.Float64()*800), cfg)
		}
		for _, r := range p.RankSuppliers(ranked[:0], 30) {
			sink += r.Score
		}
		p.Partners(func(pt *Partner) { sink += pt.WinSent })
	}
	for i := 0; i < 4*len(peers); i++ {
		cycle() // warm every peer's storage and free list
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("churn cycle allocates %.2f times per run, want 0", allocs)
	}
	if sink < 0 {
		t.Fatal("unreachable: keeps the results live")
	}
}

// TestPartnerSlotLayout pins the partner storage layout. Partner and
// edge hold no pointer, so the garbage collector never scans a peer's
// partner storage, and their sizes are fixed, so a new field is a
// deliberate choice.
func TestPartnerSlotLayout(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(Partner{}), reflect.TypeOf(edge{})} {
		if path := pointerField(typ, typ.Name()); path != "" {
			t.Errorf("%s holds a pointer-bearing field: %s", typ.Name(), path)
		}
	}
	if got := unsafe.Sizeof(Partner{}); got != 40 {
		t.Errorf("Partner is %d bytes, want 40", got)
	}
	if got := unsafe.Sizeof(edge{}); got != 16 {
		t.Errorf("edge is %d bytes, want 16", got)
	}
}

// pointerField returns the path of the first field of typ whose memory
// holds a pointer, or "" if there is none.
func pointerField(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.Slice, reflect.String:
		return path + " (" + typ.String() + ")"
	case reflect.Array:
		if typ.Len() > 0 {
			return pointerField(typ.Elem(), path+"[0]")
		}
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := pointerField(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
	}
	return ""
}
