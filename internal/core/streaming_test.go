package core

import (
	"bytes"
	"io"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/trace"
	"github.com/magellan-p2p/magellan/internal/workload"
)

// storeSource replays a store's reports in epoch order, like reading a
// trace file written by a simulation.
type storeSource struct {
	reports []trace.Report
	i       int
}

func newStoreSource(t *testing.T, s *trace.Store) *storeSource {
	t.Helper()
	src := &storeSource{}
	err := s.Range(func(_ int64, _ time.Time, reports []trace.Report) error {
		src.reports = append(src.reports, reports...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func (s *storeSource) Next() (trace.Report, error) {
	if s.i >= len(s.reports) {
		return trace.Report{}, io.EOF
	}
	r := s.reports[s.i]
	s.i++
	return r, nil
}

func TestStreamMatchesBatch(t *testing.T) {
	store, db := scaledTrace(t)
	cfg := Config{
		Seed:        3,
		HeavyEveryN: 6,
		Snapshots: []SnapshotSpec{
			{Label: "mid", Time: workload.TraceStart().Add(3 * time.Hour)},
		},
	}

	batch, err := Analyze(store, db, cfg)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	streamed, dropped, err := AnalyzeStream(newStoreSource(t, store), db, cfg, store.Interval())
	if err != nil {
		t.Fatalf("AnalyzeStream: %v", err)
	}
	if dropped != 0 {
		t.Errorf("dropped %d reports from an ordered stream", dropped)
	}

	// The streaming pipeline reuses the batch per-epoch machinery, so
	// core figures must agree exactly.
	if streamed.EpochCount != batch.EpochCount {
		t.Errorf("epoch counts differ: %d vs %d", streamed.EpochCount, batch.EpochCount)
	}
	if streamed.PeerCounts.MeanTotal != batch.PeerCounts.MeanTotal {
		t.Errorf("mean total differs: %v vs %v", streamed.PeerCounts.MeanTotal, batch.PeerCounts.MeanTotal)
	}
	if streamed.PeerCounts.StableShare != batch.PeerCounts.StableShare {
		t.Errorf("stable share differs")
	}
	if streamed.Reciprocity.All.Mean() != batch.Reciprocity.All.Mean() {
		t.Errorf("reciprocity differs: %v vs %v",
			streamed.Reciprocity.All.Mean(), batch.Reciprocity.All.Mean())
	}
	if streamed.SmallWorld.C.Mean() != batch.SmallWorld.C.Mean() {
		t.Errorf("clustering differs: %v vs %v",
			streamed.SmallWorld.C.Mean(), batch.SmallWorld.C.Mean())
	}
	if streamed.IntraISP.InFrac.Mean() != batch.IntraISP.InFrac.Mean() {
		t.Errorf("intra-ISP fraction differs")
	}
	if len(streamed.DegreeDist.Snapshots) != len(batch.DegreeDist.Snapshots) {
		t.Errorf("snapshot counts differ: %d vs %d",
			len(streamed.DegreeDist.Snapshots), len(batch.DegreeDist.Snapshots))
	}
	if len(streamed.PeerCounts.Days) != len(batch.PeerCounts.Days) {
		t.Fatalf("day counts differ")
	}
	for i := range streamed.PeerCounts.Days {
		if streamed.PeerCounts.Days[i] != batch.PeerCounts.Days[i] {
			t.Errorf("day %d differs: %+v vs %+v", i,
				streamed.PeerCounts.Days[i], batch.PeerCounts.Days[i])
		}
	}
}

func TestStreamDropsStragglers(t *testing.T) {
	_, db := scaledTrace(t)
	e0 := _t0
	reports := []trace.Report{
		report(1, [3]uint32{2, 50, 50}),
		report(2, [3]uint32{1, 50, 50}),
		report(3, [3]uint32{1, 50, 50}),
		report(9, [3]uint32{1, 50, 50}), // straggler, three epochs late
		report(4, [3]uint32{1, 50, 50}), // one epoch late: inside the lateness, kept
	}
	reports[0].Time = e0.Add(time.Minute)
	reports[1].Time = e0.Add(11 * time.Minute)
	reports[2].Time = e0.Add(31 * time.Minute)
	reports[3].Time = e0.Add(2 * time.Minute)
	reports[4].Time = e0.Add(21 * time.Minute)

	src := &storeSource{reports: reports}
	res, dropped, err := AnalyzeStream(src, db, Config{Seed: 1}, 10*time.Minute)
	if err != nil {
		t.Fatalf("AnalyzeStream: %v", err)
	}
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	if res.EpochCount != 4 {
		t.Errorf("epochs = %d, want 4", res.EpochCount)
	}
}

func TestStreamEmpty(t *testing.T) {
	_, db := scaledTrace(t)
	if _, _, err := AnalyzeStream(&storeSource{}, db, Config{}, 0); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestStreamFromBinaryReader(t *testing.T) {
	store, db := scaledTrace(t)
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.DumpTo(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, dropped, err := AnalyzeStream(rd, db, Config{Seed: 3}, store.Interval())
	if err != nil {
		t.Fatalf("AnalyzeStream over file: %v", err)
	}
	if dropped != 0 || res.EpochCount == 0 {
		t.Errorf("file stream: dropped=%d epochs=%d", dropped, res.EpochCount)
	}
}

// TestStreamTornAfterLengthPrefix: a binary stream cut right after a
// frame's length prefix ends in an error, not in results that silently
// lack the record the prefix announced.
func TestStreamTornAfterLengthPrefix(t *testing.T) {
	reports := []trace.Report{
		{Time: workload.TraceStart(), Addr: 0x0a000001, Port: 1, Channel: "CCTV1"},
		{Time: workload.TraceStart(), Addr: 0x0a000002, Port: 1, Channel: "CCTV1"},
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if err := w.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Cut the last payload off and keep its one-byte length prefix.
	torn := buf.Bytes()[:buf.Len()-len(trace.AppendReport(nil, &reports[1]))]
	rd, err := trace.NewReader(bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	db, err := isp.NewDatabase(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := AnalyzeStream(rd, db, Config{Seed: 3}, 0); err == nil {
		t.Error("AnalyzeStream read a torn stream as a clean one")
	}
}
