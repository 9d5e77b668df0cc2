package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/trace"
	"github.com/magellan-p2p/magellan/internal/workload"
)

// streamReference is AnalyzeStream's reading loop from before its
// workers decoded, kept as the oracle of its error and drop count: one
// goroutine decodes every report with Reader.Next and routes it through
// a Closer with one shard and lateness 1, and each epoch's reports are
// validated in arrival order as the epoch closes. The first fault ends
// the read. The kernel, which cannot change either, is left out.
func streamReference(rd *trace.Reader, interval time.Duration) (int, error) {
	epochs := trace.NewCloser[[]trace.Report](1, 1)
	sent := 0
	var invalid error // the first report to fail validation ends the read
	send := func(epoch int64, reports *[]trace.Report) {
		for i := 0; i < len(*reports) && invalid == nil; i++ {
			invalid = (*reports)[i].Validate()
		}
		if invalid == nil {
			sent++
		}
	}
	read := func() error {
		for invalid == nil {
			rep, err := rd.Next()
			if errors.Is(err, io.EOF) {
				epochs.Drain(send)
				break
			}
			if err != nil {
				return fmt.Errorf("core: stream: %w", err)
			}
			if held := epochs.Observe(0, rep.Time.UnixNano()/int64(interval), send); held != nil {
				*held = append(*held, rep)
			}
		}
		return invalid
	}
	err := read()
	dropped := int(epochs.Stragglers())
	if err == nil && sent == 0 {
		err = fmt.Errorf("core: stream held no reports")
	}
	return dropped, err
}

// storeReports returns a store's reports in epoch order, as a trace file
// written by a simulation holds them.
func storeReports(t *testing.T, s *trace.Store) []trace.Report {
	t.Helper()
	var out []trace.Report
	err := s.Range(func(_ int64, _ time.Time, reports []trace.Report) error {
		out = append(out, reports...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// encodeReports writes reports, in order, as a binary trace stream.
func encodeReports(t *testing.T, reports []trace.Report) []byte {
	t.Helper()
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
	return buf.Bytes()
}

// newReader opens a binary trace stream.
func newReader(t *testing.T, src io.Reader) *trace.Reader {
	t.Helper()
	rd, err := trace.NewReader(src)
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

// storeStream encodes a store's reports in epoch order.
func storeStream(t *testing.T, s *trace.Store) []byte {
	t.Helper()
	return encodeReports(t, storeReports(t, s))
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
	rd := newReader(t, bytes.NewReader(storeStream(t, store)))
	streamed, dropped, err := AnalyzeStream(rd, db, cfg, store.Interval())
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

	rd := newReader(t, bytes.NewReader(encodeReports(t, reports)))
	res, dropped, err := AnalyzeStream(rd, db, Config{Seed: 1}, 10*time.Minute)
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
	rd := newReader(t, bytes.NewReader(encodeReports(t, nil)))
	if _, _, err := AnalyzeStream(rd, db, Config{}, 0); err == nil {
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

// TestAnalyzeStreamFirstError mangles the encoded seed-7 test trace,
// with two stragglers added, by each kind of defect: a torn final frame,
// an oversized length prefix, a truncated time varint, a truncated
// partner varint, trailing bytes, a zero address and an empty channel.
// Each is placed early, mid-epoch, as an epoch's last report, in the
// last epoch and on a straggler, and the precedence cases put a corrupt
// record after an invalid report: in the next epoch, as the frame that
// closes the invalid report's epoch, and just after it; and both epochs
// the end of the stream closes hold an invalid report. At 1, 2 and 7
// workers AnalyzeStream must return the error and drop count
// streamReference returns, and leave no goroutine running.
func TestAnalyzeStreamFirstError(t *testing.T) {
	store, db := scaledTrace(t)
	interval := store.Interval()
	reports := storeReports(t, store)
	// The first report again, a quarter and three fifths of the way in,
	// long after its epoch has closed.
	var frames []trace.Report
	var stragglers []int
	for i, r := range reports {
		frames = append(frames, r)
		if i == len(reports)/4 || i == len(reports)*3/5 {
			stragglers = append(stragglers, len(frames))
			frames = append(frames, reports[0])
		}
	}
	payloads := make([][]byte, len(frames))
	for i := range frames {
		payloads[i] = trace.AppendReport(nil, &frames[i])
	}
	header := encodeReports(t, nil)
	encode := func(payloads [][]byte) []byte {
		raw := slices.Clone(header)
		for _, p := range payloads {
			raw = binary.AppendUvarint(raw, uint64(len(p)))
			raw = append(raw, p...)
		}
		return raw
	}
	with := func(raw [][]byte, at int, p []byte) [][]byte {
		raw = slices.Clone(raw)
		raw[at] = p
		return raw
	}
	reencoded := func(at int, edit func(*trace.Report)) []byte {
		r := frames[at]
		edit(&r)
		return trace.AppendReport(nil, &r)
	}

	// The frames of epoch e, straggler copies aside.
	epochOf := func(i int) int64 { return frames[i].Time.UnixNano() / int64(interval) }
	framesOf := func(e int64) []int {
		var in []int
		for i := range frames {
			if epochOf(i) == e && !slices.Contains(stragglers, i) {
				in = append(in, i)
			}
		}
		return in
	}
	mid := framesOf(epochOf(len(frames) / 2))
	third := framesOf(epochOf(len(frames) / 3))
	places := map[string]int{
		"early":      2,
		"mid_epoch":  mid[len(mid)/2],
		"epoch_last": third[len(third)-1],
		"last_epoch": len(frames) - 2,
		"straggler":  stragglers[1],
	}
	if epochOf(places["last_epoch"]) != epochOf(len(frames)-1) {
		t.Fatal("the last-epoch place is not in the last epoch")
	}

	// Each defect mangles the payloads with frame at; the stream ends
	// inside a torn frame and holds an oversized prefix before frame at.
	defects := map[string]func(raw [][]byte, at int) []byte{
		"torn_final_frame": func(raw [][]byte, at int) []byte {
			b := encode(raw[:at+1])
			return b[:len(b)-len(raw[at])/2]
		},
		"oversized_length": func(raw [][]byte, at int) []byte {
			b := binary.AppendUvarint(encode(raw[:at]), 1<<21)
			return append(b, encode(raw[at:])[len(header):]...)
		},
		"truncated_time": func(raw [][]byte, at int) []byte {
			return encode(with(raw, at, raw[at][:4]))
		},
		"truncated_partner": func(raw [][]byte, at int) []byte {
			if len(frames[at].Partners) == 0 {
				t.Fatalf("frame %d has no partner varint to truncate", at)
			}
			p := slices.Clone(raw[at])
			p[len(p)-1] |= 0x80 // the last varint runs past the end
			return encode(with(raw, at, p))
		},
		"trailing_bytes": func(raw [][]byte, at int) []byte {
			return encode(with(raw, at, append(slices.Clone(raw[at]), 0)))
		},
		"zero_address": func(raw [][]byte, at int) []byte {
			return encode(with(raw, at, reencoded(at, func(r *trace.Report) { r.Addr = 0 })))
		},
		"empty_channel": func(raw [][]byte, at int) []byte {
			return encode(with(raw, at, reencoded(at, func(r *trace.Report) { r.Channel = "" })))
		},
	}
	cases := map[string][]byte{}
	for dname, defect := range defects {
		for pname, at := range places {
			cases[dname+"/"+pname] = defect(payloads, at)
		}
	}
	// Precedence: the first report of epoch e has a zero address, and a
	// record of a later epoch is corrupt.
	e := epochOf(len(frames) / 2)
	next, after := framesOf(e+1), framesOf(e+2)
	if len(next) < 2 || len(after) < 2 {
		t.Fatal("the precedence epochs are too small")
	}
	invalid := with(payloads, mid[0], reencoded(mid[0], func(r *trace.Report) { r.Addr = 0 }))
	for name, at := range map[string]int{
		"next_epoch":    next[1],
		"closing_frame": after[0],
		"after_close":   after[1],
	} {
		cases["invalid_then_trailing_bytes/"+name] = defects["trailing_bytes"](invalid, at)
		cases["invalid_then_truncated_time/"+name] = defects["truncated_time"](invalid, at)
	}
	// Both epochs the final drain closes hold an invalid report: the
	// older one's is the error.
	last := framesOf(epochOf(len(frames) - 1))
	penult := framesOf(epochOf(last[0]) - 1)
	both := with(payloads, last[0], reencoded(last[0], func(r *trace.Report) { r.Addr = 0 }))
	cases["invalid_in_both_drained_epochs"] = defects["empty_channel"](both, penult[len(penult)-1])

	sawDrops := false
	for name, raw := range cases {
		wantDropped, wantErr := streamReference(newReader(t, bytes.NewReader(raw)), interval)
		if wantErr == nil && !strings.HasSuffix(name, "/straggler") {
			t.Fatalf("%s: the reference loop accepted the stream", name)
		}
		sawDrops = sawDrops || wantDropped > 0
		for _, workers := range []int{1, 2, 7} {
			cfg := goldenConfig()
			cfg.Workers = workers
			base := runtime.NumGoroutine()
			_, dropped, err := AnalyzeStream(newReader(t, bytes.NewReader(raw)), db, cfg, interval)
			waitGoroutines(t, base)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || dropped != wantDropped {
				t.Errorf("%s, %d workers: (%d, %v), the reference loop (%d, %v)", name, workers, dropped, err, wantDropped, wantErr)
			}
			for _, target := range []error{trace.ErrCorrupt, io.ErrUnexpectedEOF} {
				if errors.Is(err, target) != errors.Is(wantErr, target) {
					t.Errorf("%s, %d workers: errors.Is(%v, %v) differs from the reference loop's", name, workers, err, target)
				}
			}
		}
	}
	if !sawDrops {
		t.Error("no case counted a straggler before its fault")
	}
}

// TestAnalyzeStreamAllocsPerReport pins the stream's memory bound: once
// its buffers and each worker's slabs have grown to the largest epoch,
// the stream allocates per epoch, not per report. A second copy of the
// seed-7 test trace, its times shifted past the first copy's, may cost
// at most 64 bytes per report more than the first copy alone; a fresh
// partner list per report cost about 575. One worker runs every epoch of
// the first copy, so its slabs and buffers have grown to the largest
// epoch before the second copy begins.
func TestAnalyzeStreamAllocsPerReport(t *testing.T) {
	store, db := scaledTrace(t)
	first := storeReports(t, store)
	span := first[len(first)-1].Time.Sub(first[0].Time)
	shift := (span/store.Interval() + 2) * store.Interval()
	second := slices.Clone(first)
	for i := range second {
		second[i].Time = second[i].Time.Add(shift)
	}
	once := encodeReports(t, first)
	twice := encodeReports(t, append(slices.Clone(first), second...))
	cfg := goldenConfig()
	cfg.Workers = 1
	allocated := func(raw []byte) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			rd := newReader(t, bytes.NewReader(raw))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, _, err := AnalyzeStream(rd, db, cfg, store.Interval()); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	extra := float64(allocated(twice)) - float64(allocated(once))
	if per := extra / float64(len(second)); per > 64 {
		t.Errorf("the second copy's %d reports allocated %.0f bytes, %.1f per report; want at most 64", len(second), extra, per)
	}
}
