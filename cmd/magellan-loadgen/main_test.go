package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/obs"
	"github.com/magellan-p2p/magellan/internal/trace"
)

var _t0 = time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC)

// seededReports synthesizes a reproducible replay set.
func seededReports(n int) []trace.Report {
	rng := rand.New(rand.NewSource(5))
	out := make([]trace.Report, n)
	for i := range out {
		out[i] = trace.Report{
			Time:     _t0.Add(time.Duration(i) * time.Second),
			Addr:     isp.Addr(rng.Uint32() | 1),
			Port:     uint16(1024 + rng.Intn(60000)),
			Channel:  "CCTV1",
			UpKbps:   448,
			DownKbps: 2048,
			Partners: []trace.PartnerRecord{{Addr: isp.Addr(rng.Uint32() | 1), Port: 80, SentSeg: 3}},
		}
	}
	return out
}

// encodeTrace returns reports as trace-file bytes.
func encodeTrace(t *testing.T, reports []trace.Report) []byte {
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

func writeFile(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// addrSink records the address of every report a shard accepted.
type addrSink struct {
	mu    sync.Mutex
	addrs []isp.Addr
}

func (s *addrSink) Submit(r trace.Report) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.addrs = append(s.addrs, r.Addr)
	return nil
}

func (s *addrSink) sorted() []isp.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := slices.Clone(s.addrs)
	slices.Sort(out)
	return out
}

// TestReplayRoutesByShardOf replays a seeded trace against an
// in-process two-shard fleet: every report must land on exactly the
// shard trace.ShardOf assigns its address, and nowhere else.
func TestReplayRoutesByShardOf(t *testing.T) {
	const shards = 2
	reports := seededReports(150)
	path := writeFile(t, "replay.trace", encodeTrace(t, reports))

	sinks := make([]*addrSink, shards)
	fleet, err := trace.NewFleet(trace.FleetAddrs("127.0.0.1", shards),
		func(i int) (trace.Sink, error) { sinks[i] = &addrSink{}; return sinks[i], nil },
		trace.FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	args := []string{"-trace", path, "-addrs", strings.Join(fleet.Addrs(), ","), "-rate", "2000", "-clients", "2"}
	if err := run(args); err != nil {
		t.Fatalf("run: %v", err)
	}

	want := make([][]isp.Addr, shards)
	for _, r := range reports {
		k := trace.ShardOf(r.Addr, shards)
		want[k] = append(want[k], r.Addr)
	}
	deadline := time.Now().Add(5 * time.Second)
	for fleet.TotalStats().Received < uint64(len(reports)) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	for k := range want {
		slices.Sort(want[k])
		deadline := time.Now().Add(5 * time.Second)
		got := sinks[k].sorted()
		for !slices.Equal(got, want[k]) && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			got = sinks[k].sorted()
		}
		if !slices.Equal(got, want[k]) {
			t.Errorf("shard %d accepted %d reports, ShardOf assigns it %d (or a foreign address arrived)",
				k, len(got), len(want[k]))
		}
	}
}

// TestJournalReplaySet: a .jsonl input replays one synthesized report
// per emit event, with the journal's address and channel and a time
// rebuilt from the epoch; every other event is skipped.
func TestJournalReplaySet(t *testing.T) {
	j := obs.NewJournal(16)
	emits := []obs.ReportID{
		{Addr: 0x3a0c2107, Channel: "CCTV1", Epoch: 5, Seq: 1},
		{Addr: 0x3a0c2108, Channel: "CCTV4", Epoch: 6, Seq: 1},
	}
	j.Record(1, obs.StageEmit, obs.VerdictEmitted, emits[0])
	j.Record(2, obs.StageServer, obs.VerdictDelivered, emits[0])
	j.Record(3, obs.StageEmit, obs.VerdictEmitted, emits[1])
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	path := writeFile(t, "run.jsonl", buf.Bytes())

	interval := 10 * time.Minute
	got, err := loadReplaySet(path, interval)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(emits) {
		t.Fatalf("replay set has %d reports, want %d (one per emit event)", len(got), len(emits))
	}
	for i, id := range emits {
		r := got[i]
		if r.Addr != isp.Addr(id.Addr) || r.Channel != id.Channel ||
			!r.Time.Equal(time.Unix(0, id.Epoch*int64(interval))) {
			t.Errorf("report %d = %v %s %v, want %v %s epoch %d", i, r.Addr, r.Channel, r.Time,
				isp.Addr(id.Addr), id.Channel, id.Epoch)
		}
	}
}

// TestTornTailReplaySet: a trace cut mid-record replays every intact
// record before the cut.
func TestTornTailReplaySet(t *testing.T) {
	reports := seededReports(20)
	data := encodeTrace(t, reports)
	path := writeFile(t, "torn.trace", data[:len(data)-3])
	got, err := loadReplaySet(path, trace.DefaultReportInterval)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reports)-1 {
		t.Fatalf("torn trace replays %d reports, want the %d intact ones", len(got), len(reports)-1)
	}
	for i, r := range got {
		if r.Addr != reports[i].Addr || !r.Time.Equal(reports[i].Time) {
			t.Errorf("report %d = %v at %v, want %v at %v", i, r.Addr, r.Time, reports[i].Addr, reports[i].Time)
		}
	}
}

// TestFlagValidation: malformed flags fail before any input is read
// (the trace path does not exist, so a flag that slipped through would
// surface as a file error instead).
func TestFlagValidation(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "absent.trace")
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-addrs", "127.0.0.1:9600,"}, "empty entry"},
		{[]string{"-addrs", ",127.0.0.1:9600"}, "empty entry"},
		{[]string{"-addrs", ""}, "empty entry"},
		{[]string{"-rate", "-5"}, "-rate"},
		{[]string{"-rate", "NaN"}, "-rate"},
		{[]string{"-clients", "0"}, "-clients"},
		{[]string{"-loop", "0"}, "-loop"},
		{[]string{"-no-such-flag"}, "not defined"},
	}
	for _, tc := range cases {
		err := run(append([]string{"-trace", missing}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %v = %v, want an error mentioning %q", tc.args, err, tc.want)
		}
	}
}

// TestDialFailureFails: a client that cannot dial its fleet fails the
// run instead of reporting zero sends and exiting cleanly.
func TestDialFailureFails(t *testing.T) {
	path := writeFile(t, "replay.trace", encodeTrace(t, seededReports(5)))
	if err := run([]string{"-trace", path, "-addrs", "127.0.0.1:99999"}); err == nil {
		t.Fatal("run against an undialable address succeeded")
	}
}
