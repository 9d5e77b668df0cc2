package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/allocguard"
	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/obs"
)

// loadReference is the loop LoadStore must agree with: Next and Submit,
// one report at a time, stopping at the first error.
func loadReference(raw []byte) (*Store, error) {
	rd, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	store := NewStore(0)
	for {
		rep, err := rd.Next()
		if err == io.EOF {
			return store, nil
		}
		if err != nil {
			return nil, err
		}
		if err := store.Submit(rep); err != nil {
			return nil, err
		}
	}
}

// frameStream joins a trace header and one frame per payload.
func frameStream(payloads [][]byte) []byte {
	raw := append(_magic[:len(_magic):len(_magic)], _version)
	for _, p := range payloads {
		raw = binary.AppendUvarint(raw, uint64(len(p)))
		raw = append(raw, p...)
	}
	return raw
}

// faultyStreams is the fault fixture of TestLoadStoreFirstError and
// TestMergeMatchesReference: 3,000 random reports, the frames to place a
// fault at — early in the stream, in the middle of a decode chunk and in
// the last chunk — and each kind of fault, as a function building the
// reports' stream with that fault at a given frame.
func faultyStreams(t *testing.T) (places map[string]int, faults map[string]func(at int) []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	payloads := make([][]byte, 3000)
	for i := range payloads {
		r := randomReport(rng)
		payloads[i] = AppendReport(nil, &r)
	}
	// The first frame of every decode chunk, as LoadStore cuts them.
	var chunkStarts []int
	held := _chunkBytes
	for i, p := range payloads {
		if held >= _chunkBytes {
			chunkStarts, held = append(chunkStarts, i), 0
		}
		held += len(p)
	}
	if len(chunkStarts) < 4 {
		t.Fatalf("fixture spans %d chunks, want at least 4", len(chunkStarts))
	}
	places = map[string]int{
		"early":      2,
		"mid_chunk":  (chunkStarts[2] + chunkStarts[3]) / 2,
		"last_chunk": len(payloads) - 3,
	}
	if last := chunkStarts[len(chunkStarts)-1]; places["last_chunk"] <= last {
		t.Fatalf("last-chunk fault at %d is not past the last chunk's start %d", places["last_chunk"], last)
	}

	zero := randomReport(rng)
	zero.Addr = 0
	faults = map[string]func(at int) []byte{
		"torn_tail": func(at int) []byte {
			raw := frameStream(payloads[:at+1])
			return raw[:len(raw)-len(payloads[at])/2]
		},
		"corrupt_record": func(at int) []byte {
			bad := slices.Clone(payloads)
			bad[at] = append(slices.Clone(bad[at]), 0) // one trailing byte
			return frameStream(bad)
		},
		"oversized_frame": func(at int) []byte {
			raw := frameStream(payloads[:at])
			raw = binary.AppendUvarint(raw, _maxRecordSize+1)
			return append(raw, frameStream(payloads[at:])[len(_magic)+1:]...)
		},
		"zero_address": func(at int) []byte {
			bad := slices.Clone(payloads)
			bad[at] = AppendReport(nil, &zero)
			return frameStream(bad)
		},
	}
	return places, faults
}

// TestLoadStoreFirstError places each kind of fault early in the stream,
// in the middle of a decode chunk and in the last chunk; LoadStore must
// return the error the sequential loop returns, and leave no worker
// running.
func TestLoadStoreFirstError(t *testing.T) {
	places, faults := faultyStreams(t)
	for fname, fault := range faults {
		for pname, at := range places {
			raw := fault(at)
			_, wantErr := loadReference(raw)
			if wantErr == nil {
				t.Fatalf("%s at %s: the reference loop accepted the stream", fname, pname)
			}
			before := runtime.NumGoroutine()
			store, err := LoadStore(bytes.NewReader(raw), 0)
			if after := goroutinesSettled(before); after > before {
				t.Errorf("%s at %s: %d goroutines after LoadStore, %d before", fname, pname, after, before)
			}
			if store != nil || err == nil || err.Error() != wantErr.Error() {
				t.Errorf("%s at %s: LoadStore = %v, %v; the sequential loop returns %v", fname, pname, store, err, wantErr)
			}
		}
	}
}

// goroutinesSettled returns the goroutine count once it is at most want,
// or after a second. A worker has signalled its exit before its
// goroutine is gone, so the count can lag for a moment.
func goroutinesSettled(want int) int {
	deadline := time.Now().Add(time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// TestReaderAllocsPerReport pins the Reader's allocations: with partner
// lists cut from slabs and channel names interned, a stream of 1,000
// reports costs well under one allocation per twenty reports, where
// decoding each on its own costs two.
func TestReaderAllocsPerReport(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	reports := make([]Report, 1000)
	for i := range reports {
		reports[i] = randomReport(rng)
	}
	raw := encodeStream(t, reports...)
	read := func() {
		rd, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := rd.Next(); err == io.EOF {
				return
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}
	read()
	allocs := allocguard.Count(1, read)
	if per := float64(allocs) / float64(len(reports)); per >= 0.05 {
		t.Errorf("reading %d reports made %d allocations (%.3f per report), want < 0.05", len(reports), allocs, per)
	}
}

// TestDecoderInternBound: ten thousand distinct channel names decode
// correctly and fill the intern table only to its bound, and a name
// longer than the interned length is never kept.
func TestDecoderInternBound(t *testing.T) {
	var d Decoder
	r := sampleReport(7, _t0)
	r.Channel = strings.Repeat("x", _maxInternedLen+1)
	if _, err := d.Decode(AppendReport(nil, &r)); err != nil || len(d.names) != 0 {
		t.Fatalf("a %d-byte name: err %v, %d names interned, want none", len(r.Channel), err, len(d.names))
	}
	for i := 0; i < 10000; i++ {
		r.Channel = fmt.Sprintf("channel-%05d", i)
		got, err := d.Decode(AppendReport(nil, &r))
		if err != nil {
			t.Fatal(err)
		}
		if got.Channel != r.Channel {
			t.Fatalf("decoded channel %q, want %q", got.Channel, r.Channel)
		}
	}
	if len(d.names) != _maxInterned {
		t.Errorf("intern table holds %d names, want its bound %d", len(d.names), _maxInterned)
	}
}

// TestDecoderRewindReusesSlabs: a decoder rewound before each batch of
// reports decodes every batch as DecodeReport does, and once its slabs
// have grown to the largest batch it allocates nothing.
func TestDecoderRewindReusesSlabs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var payloads [][]byte
	for i := 0; i < 600; i++ {
		r := randomReport(rng)
		payloads = append(payloads, AppendReport(nil, &r))
	}
	var d Decoder
	batch := func(payloads [][]byte) []Report {
		d.Rewind()
		var out []Report
		for _, p := range payloads {
			rep, err := d.Decode(p)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, rep)
		}
		return out
	}
	batch(payloads)
	small := batch(payloads[:100]) // overwritten by the next batch
	small = slices.Clone(small)
	for i := range small {
		small[i].Partners = slices.Clone(small[i].Partners)
	}
	got := batch(payloads[300:])
	for i, p := range payloads[300:] {
		if want, _ := DecodeReport(p); !sameReport(got[i], want) {
			t.Fatalf("report %d after a rewind differs from DecodeReport's", i)
		}
	}
	for i, p := range payloads[:100] {
		if want, _ := DecodeReport(p); !sameReport(small[i], want) {
			t.Fatalf("report %d of the smaller batch differs from DecodeReport's", i)
		}
	}
	warm := func() {
		d.Rewind()
		for _, p := range payloads {
			if _, err := d.Decode(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := allocguard.Count(5, warm); n != 0 {
		t.Errorf("5 rewound batches of %d reports allocated %d objects, want 0", len(payloads), n)
	}
}

// epochFixture is one epoch's reports in arrival order: some peers
// report twice or three times, and some partner lists name address 0.
func epochFixture(rng *rand.Rand, n int, at time.Time) []Report {
	reports := make([]Report, 0, n)
	for i := 0; i < n; i++ {
		r := randomReport(rng)
		r.Time = at.Add(time.Duration(rng.Intn(600)) * time.Second)
		switch {
		case i > 0 && rng.Intn(5) == 0:
			r.Addr = reports[rng.Intn(len(reports))].Addr // supersedes it
		case i%3 == 0:
			r.Addr %= 4096 // a dense range, near address 0
			r.Addr++
		}
		if len(r.Partners) > 0 && rng.Intn(4) == 0 {
			r.Partners[0].Addr = 0
		}
		reports = append(reports, r)
	}
	return reports
}

// TestEpochColumnsWarmAllocs pins a warm builder's epoch — Reset, Add
// every report, Columns — at zero allocations.
func TestEpochColumnsWarmAllocs(t *testing.T) {
	reports := epochFixture(rand.New(rand.NewSource(11)), 600, _t0)
	cols := NewEpochColumns()
	epoch := func() {
		cols.Reset()
		for i := range reports {
			cols.Add(reports[i])
		}
		cols.Columns()
	}
	epoch()
	if n := allocguard.Count(50, epoch); n != 0 {
		t.Errorf("50 warm epochs allocated %d objects, want 0", n)
	}
}

// TestSealJournalOrder: whatever the worker count, the seal plane's
// events read as one goroutine sealing epoch after epoch records them —
// epochs ascending; in each, superseded for every replaced report as its
// replacement arrives, then indexed for every kept report in address
// order.
func TestSealJournalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var reports []Report
	for e := 0; e < 24; e++ {
		reports = append(reports, epochFixture(rng, 10+rng.Intn(60), _t0.Add(time.Duration(e)*DefaultReportInterval))...)
	}

	var want []obs.Event
	event := func(r *Report, v obs.Verdict) obs.Event {
		return obs.Event{At: r.Time.UnixNano(), Stage: obs.StageSeal, Verdict: v, ID: journalID(r, DefaultReportInterval)}
	}
	ref := NewStore(0)
	for _, r := range reports {
		if err := ref.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range ref.Epochs() {
		latest := make(map[isp.Addr]Report)
		for _, r := range ref.Snapshot(e).Reports {
			if old, ok := latest[r.Addr]; ok {
				want = append(want, event(&old, obs.VerdictSuperseded))
			}
			latest[r.Addr] = r
		}
		addrs := make([]isp.Addr, 0, len(latest))
		for a := range latest {
			addrs = append(addrs, a)
		}
		slices.Sort(addrs)
		for _, a := range addrs {
			r := latest[a]
			want = append(want, event(&r, obs.VerdictIndexed))
		}
	}

	for _, procs := range []int{1, 2, 3, 8} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			j := obs.NewJournal(1 << 14)
			store := NewStore(0)
			store.SetJournal(j)
			for _, r := range reports {
				if err := store.Submit(r); err != nil {
					t.Fatal(err)
				}
			}
			store.Seal()
			var got []obs.Event
			for _, ev := range j.Events() {
				if ev.Stage == obs.StageSeal {
					got = append(got, ev)
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("GOMAXPROCS %d: %d seal events differ from the sequential order's %d", procs, len(got), len(want))
			}
		}()
	}
}

// TestSplitByReports: the ranges cover every epoch in order, none is
// empty, there are min(workers, epochs) of them, and none holds much
// more than its share of the reports.
func TestSplitByReports(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		lists := make([][]Report, rng.Intn(12))
		total, biggest := 0, 0
		for i := range lists {
			lists[i] = make([]Report, 1+rng.Intn(50))
			total += len(lists[i])
			biggest = max(biggest, len(lists[i]))
		}
		workers := 1 + rng.Intn(9)
		bounds := splitByReports(lists, workers)
		if len(lists) == 0 {
			if len(bounds) != 1 {
				t.Fatalf("no epochs: bounds %v", bounds)
			}
			continue
		}
		if len(bounds) != min(workers, len(lists))+1 || bounds[0] != 0 || bounds[len(bounds)-1] != len(lists) {
			t.Fatalf("%d epochs, %d workers: bounds %v", len(lists), workers, bounds)
		}
		for w := 0; w+1 < len(bounds); w++ {
			if bounds[w] >= bounds[w+1] {
				t.Fatalf("%d epochs, %d workers: empty range in %v", len(lists), workers, bounds)
			}
		}
		if workers <= len(lists) {
			for w := 0; w+1 < len(bounds); w++ {
				n := 0
				for _, l := range lists[bounds[w]:bounds[w+1]] {
					n += len(l)
				}
				if n > total/workers+2*biggest {
					t.Errorf("range %d of %v holds %d of %d reports", w, bounds, n, total)
				}
			}
		}
	}
}
