package trace

import (
	"slices"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
)

// indexStore builds a store with duplicate per-peer reports inside an
// epoch (submitted out of address order) so the index's dedup and
// ordering actually have work to do.
func indexStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore(10 * time.Minute)
	addrs := []uint32{900, 120, 57, 411, 333}
	for e := 0; e < 3; e++ {
		base := _t0.Add(time.Duration(e) * 10 * time.Minute)
		for round := 0; round < 2; round++ {
			for i, a := range addrs {
				r := sampleReport(a, base.Add(time.Duration(round*3+i)*time.Minute))
				r.PlayPoint = uint32(1000*e + 100*round + i)
				if err := s.Submit(r); err != nil {
					t.Fatalf("Submit: %v", err)
				}
			}
		}
	}
	return s
}

func TestIndexMatchesLegacyAccessors(t *testing.T) {
	s := indexStore(t)
	ix := s.Seal()

	epochs := s.Epochs()
	if got := ix.Epochs(); !slices.Equal(got, epochs) {
		t.Fatalf("index epochs %v, want %v", got, epochs)
	}
	if ix.Interval() != s.Interval() {
		t.Errorf("interval %v, want %v", ix.Interval(), s.Interval())
	}

	for _, e := range epochs {
		legacy := latestByPeer(s, e)
		reporters := ix.Reporters(e)
		reports := ix.Reports(e)
		if len(reporters) != len(legacy) || len(reports) != len(legacy) {
			t.Fatalf("epoch %d: %d reporters / %d reports, want %d",
				e, len(reporters), len(reports), len(legacy))
		}
		if !slices.IsSorted(reporters) {
			t.Errorf("epoch %d: reporters not sorted: %v", e, reporters)
		}
		for i, a := range reporters {
			want := legacy[a]
			got := reports[i]
			if got.Addr != a {
				t.Fatalf("epoch %d: column misaligned at %d: %v vs %v", e, i, got.Addr, a)
			}
			// Last-submitted report wins, exactly like the legacy map.
			if got.PlayPoint != want.PlayPoint || !got.Time.Equal(want.Time) {
				t.Errorf("epoch %d peer %v: dedup kept PlayPoint %d at %v, legacy kept %d at %v",
					e, a, got.PlayPoint, got.Time, want.PlayPoint, want.Time)
			}
		}
		if got, want := ix.EpochStart(e), s.EpochStart(e); !got.Equal(want) {
			t.Errorf("epoch %d start %v, want %v", e, got, want)
		}

		all := ix.AllPeers(e)
		if !slices.IsSorted(all) {
			t.Errorf("epoch %d: all-peers not sorted", e)
		}
		seen := make(map[isp.Addr]struct{})
		for a, rep := range legacy {
			seen[a] = struct{}{}
			for _, p := range rep.Partners {
				seen[p.Addr] = struct{}{}
			}
		}
		if len(all) != len(seen) {
			t.Errorf("epoch %d: %d all-peers, want %d", e, len(all), len(seen))
		}
		for _, a := range all {
			if _, ok := seen[a]; !ok {
				t.Errorf("epoch %d: all-peers has %v not in legacy union", e, a)
			}
		}
	}

	// Unknown epochs yield empty views, not panics.
	if ix.Reports(999999) != nil || ix.Reporters(999999) != nil || ix.AllPeers(999999) != nil {
		t.Error("unknown epoch returned non-nil slices")
	}
}

func TestSealCachesUntilSubmit(t *testing.T) {
	s := indexStore(t)
	ix1 := s.Seal()
	if ix2 := s.Seal(); ix2 != ix1 {
		t.Error("Seal rebuilt the index for an unchanged store")
	}
	if err := s.Submit(sampleReport(7777, _t0.Add(25*time.Minute))); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ix3 := s.Seal()
	if ix3 == ix1 {
		t.Fatal("Seal returned a stale index after Submit")
	}
	found := slices.Contains(ix3.Reporters(ix3.Epochs()[2]), isp.Addr(7777))
	if !found {
		t.Error("new report missing from resealed index")
	}
	// The old index is immutable: it must not see the new report.
	if slices.Contains(ix1.Reporters(ix1.Epochs()[2]), isp.Addr(7777)) {
		t.Error("old index mutated by Submit")
	}
}

// TestEpochColumnsReuse builds every epoch of indexStore with one
// builder, warmed by a wider epoch so each build runs over stale
// buffers, and checks the columns against the sealed index and the
// superseded reports Add hands back: exactly the first round's, in
// arrival order.
func TestEpochColumnsReuse(t *testing.T) {
	s := indexStore(t)
	ix := s.Seal()
	c := NewEpochColumns()
	wide := sampleReport(5555, _t0)
	wide.Partners = append(wide.Partners, PartnerRecord{Addr: 4242})
	for _, r := range append(s.Snapshot(ix.Epochs()[0]).Reports, wide) {
		c.Add(r)
	}
	c.Columns()

	for _, e := range ix.Epochs() {
		raw := s.Snapshot(e).Reports
		c.Reset()
		var superseded []uint32
		for _, r := range raw {
			if old, ok := c.Add(r); ok {
				if old.Addr != r.Addr {
					t.Fatalf("epoch %d: Add(%v) superseded %v", e, r.Addr, old.Addr)
				}
				superseded = append(superseded, old.PlayPoint)
			}
		}
		if c.Len() != len(raw)-len(superseded) {
			t.Errorf("epoch %d: Len %d, want %d", e, c.Len(), len(raw)-len(superseded))
		}
		for k, pp := range superseded {
			if want := raw[k].PlayPoint; pp != want {
				t.Errorf("epoch %d: superseded #%d has PlayPoint %d, want %d", e, k, pp, want)
			}
		}
		reports, addrs, all := c.Columns()
		if !slices.Equal(addrs, ix.Reporters(e)) || !slices.Equal(all, ix.AllPeers(e)) {
			t.Fatalf("epoch %d: addrs %v all %v, index has %v and %v",
				e, addrs, all, ix.Reporters(e), ix.AllPeers(e))
		}
		for k, want := range ix.Reports(e) {
			if got := reports[k]; got.Addr != want.Addr || got.PlayPoint != want.PlayPoint {
				t.Errorf("epoch %d row %d: %v/%d, index has %v/%d",
					e, k, got.Addr, got.PlayPoint, want.Addr, want.PlayPoint)
			}
		}
	}
}
