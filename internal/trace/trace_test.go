package trace

import (
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
)

var _t0 = time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC)

// latestByPeer is the map-based reference for the sealed index's dedup:
// each peer's most recent report of one epoch, the last submitted winning,
// built from Store.Snapshot.
func latestByPeer(s *Store, epoch int64) map[isp.Addr]Report {
	out := make(map[isp.Addr]Report)
	for _, r := range s.Snapshot(epoch).Reports {
		out[r.Addr] = r
	}
	return out
}

func sampleReport(addr uint32, at time.Time) Report {
	return Report{
		Time:      at,
		Addr:      isp.Addr(addr),
		Port:      43210,
		Channel:   "CCTV1",
		UpKbps:    448.5,
		DownKbps:  2048,
		RecvKbps:  397.2,
		SentKbps:  410.8,
		BufferMap: 0xfff0ffffffffffff,
		PlayPoint: 123456,
		Partners: []PartnerRecord{
			{Addr: 1000, Port: 8080, SentSeg: 120, RecvSeg: 300},
			{Addr: 1001, Port: 8081, SentSeg: 0, RecvSeg: 45},
			{Addr: 1002, Port: 8082, SentSeg: 77, RecvSeg: 0},
		},
	}
}

func TestReportValidate(t *testing.T) {
	good := sampleReport(42, _t0)
	if err := good.Validate(); err != nil {
		t.Errorf("valid report rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Report)
	}{
		{name: "zero addr", mutate: func(r *Report) { r.Addr = 0 }},
		{name: "empty channel", mutate: func(r *Report) { r.Channel = "" }},
		{name: "zero time", mutate: func(r *Report) { r.Time = time.Time{} }},
		{name: "too many partners", mutate: func(r *Report) {
			r.Partners = make([]PartnerRecord, MaxPartnersPerReport+1)
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := sampleReport(42, _t0)
			tt.mutate(&r)
			if err := r.Validate(); err == nil {
				t.Error("invalid report accepted")
			}
		})
	}
}

func TestStoreEpochBucketing(t *testing.T) {
	s := NewStore(10 * time.Minute)
	for i := 0; i < 30; i++ {
		r := sampleReport(uint32(100+i), _t0.Add(time.Duration(i)*time.Minute))
		if err := s.Submit(r); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if s.Len() != 30 {
		t.Errorf("Len = %d, want 30", s.Len())
	}
	epochs := s.Epochs()
	if len(epochs) != 3 {
		t.Fatalf("epoch count = %d, want 3 (30 minutes / 10)", len(epochs))
	}
	for i := 1; i < len(epochs); i++ {
		if epochs[i] != epochs[i-1]+1 {
			t.Errorf("epochs not consecutive: %v", epochs)
		}
	}
	snap := s.Snapshot(epochs[0])
	if len(snap.Reports) != 10 {
		t.Errorf("first epoch has %d reports, want 10", len(snap.Reports))
	}
	if !snap.Start.Equal(s.EpochStart(epochs[0])) {
		t.Error("snapshot start mismatch")
	}
}

func TestStoreRejectsInvalid(t *testing.T) {
	s := NewStore(0)
	bad := sampleReport(0, _t0)
	if err := s.Submit(bad); err == nil {
		t.Error("store accepted invalid report")
	}
	if s.Len() != 0 {
		t.Error("invalid report was stored")
	}
}

func TestStoreReportersAndLatest(t *testing.T) {
	s := NewStore(10 * time.Minute)
	r1 := sampleReport(7, _t0.Add(time.Minute))
	r1.RecvKbps = 100
	r2 := sampleReport(7, _t0.Add(2*time.Minute)) // same peer, same epoch
	r2.RecvKbps = 200
	r3 := sampleReport(8, _t0.Add(3*time.Minute))
	for _, r := range []Report{r1, r2, r3} {
		if err := s.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	e := s.Epochs()[0]
	latest := latestByPeer(s, e)
	if len(latest) != 2 {
		t.Errorf("reporters = %d, want 2", len(latest))
	}
	if latest[7].RecvKbps != 200 {
		t.Errorf("latestByPeer kept RecvKbps=%v, want the later report (200)", latest[7].RecvKbps)
	}
}

func TestStoreRange(t *testing.T) {
	s := NewStore(10 * time.Minute)
	for i := 0; i < 25; i++ {
		if err := s.Submit(sampleReport(uint32(1+i), _t0.Add(time.Duration(i)*time.Minute))); err != nil {
			t.Fatal(err)
		}
	}
	var visited []int64
	total := 0
	err := s.Range(func(epoch int64, start time.Time, reports []Report) error {
		visited = append(visited, epoch)
		total += len(reports)
		return nil
	})
	if err != nil {
		t.Fatalf("Range: %v", err)
	}
	if total != 25 {
		t.Errorf("Range visited %d reports, want 25", total)
	}
	for i := 1; i < len(visited); i++ {
		if visited[i] <= visited[i-1] {
			t.Error("Range epochs not ascending")
		}
	}
}

func TestStoreEpochMath(t *testing.T) {
	s := NewStore(10 * time.Minute)
	at := _t0.Add(47 * time.Minute)
	e := s.EpochOf(at)
	start := s.EpochStart(e)
	if at.Before(start) || !at.Before(start.Add(s.Interval())) {
		t.Errorf("instant %v outside its epoch [%v, +%v)", at, start, s.Interval())
	}
}

func TestTeeAndDiscard(t *testing.T) {
	a := NewStore(0)
	b := NewStore(0)
	tee := Tee{a, b, Discard}
	if err := tee.Submit(sampleReport(5, _t0)); err != nil {
		t.Fatalf("tee submit: %v", err)
	}
	if a.Len() != 1 || b.Len() != 1 {
		t.Errorf("tee fanout: lens = %d, %d; want 1, 1", a.Len(), b.Len())
	}
	// A failing sink reports the error but does not stop others.
	bad := sampleReport(0, _t0)
	if err := tee.Submit(bad); err == nil {
		t.Error("tee swallowed sink error")
	}
}

func TestDumpTo(t *testing.T) {
	src := NewStore(10 * time.Minute)
	for i := 0; i < 12; i++ {
		if err := src.Submit(sampleReport(uint32(1+i), _t0.Add(time.Duration(i)*time.Minute))); err != nil {
			t.Fatal(err)
		}
	}
	dst := NewStore(10 * time.Minute)
	if err := src.DumpTo(dst); err != nil {
		t.Fatalf("DumpTo: %v", err)
	}
	if dst.Len() != src.Len() {
		t.Errorf("dump copied %d of %d reports", dst.Len(), src.Len())
	}
}
