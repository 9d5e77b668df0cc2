package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"os"

	"github.com/magellan-p2p/magellan/internal/faults"
	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/obs"
)

// TestShardOfStable pins the partitioner's contract: total, stable, and
// in range — the same address maps to the same shard every time, for
// every fleet size, with degenerate sizes collapsing to shard 0.
func TestShardOfStable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		addr := isp.Addr(rng.Uint32())
		for _, n := range []int{-1, 0, 1, 2, 3, 7, 16, 100} {
			got := ShardOf(addr, n)
			if n <= 1 {
				if got != 0 {
					t.Fatalf("ShardOf(%v, %d) = %d, want 0", addr, n, got)
				}
				continue
			}
			if got < 0 || got >= n {
				t.Fatalf("ShardOf(%v, %d) = %d, out of range", addr, n, got)
			}
			if again := ShardOf(addr, n); again != got {
				t.Fatalf("ShardOf(%v, %d) unstable: %d then %d", addr, n, got, again)
			}
		}
	}
}

// TestShardOfDistribution checks the hash spreads a realistic address
// population evenly enough: every shard's share of 20k random addresses
// must sit within ±25%% of the fair share for each fleet size.
func TestShardOfDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const peers = 20000
	addrs := make([]isp.Addr, peers)
	for i := range addrs {
		addrs[i] = isp.Addr(rng.Uint32())
	}
	for _, n := range []int{2, 3, 7, 16} {
		counts := make([]int, n)
		for _, a := range addrs {
			counts[ShardOf(a, n)]++
		}
		fair := float64(peers) / float64(n)
		for i, c := range counts {
			if ratio := float64(c) / fair; ratio < 0.75 || ratio > 1.25 {
				t.Errorf("shards=%d: shard %d holds %d of %d (%.2f× fair share)",
					n, i, c, peers, ratio)
			}
		}
	}
}

// repartitionReports builds a deterministic workload with several
// reports per address across several epochs, so merge order within an
// address actually matters (the last submitted must win dedup).
func repartitionReports() []Report {
	rng := rand.New(rand.NewSource(17))
	const peers = 300
	var reports []Report
	for epoch := 0; epoch < 4; epoch++ {
		base := _t0.Add(time.Duration(epoch) * DefaultReportInterval)
		for p := 0; p < peers; p++ {
			addr := uint32(0x0a000001 + p*7919)
			for copies := 1 + rng.Intn(3); copies > 0; copies-- {
				r := sampleReport(addr, base.Add(time.Duration(rng.Intn(int(DefaultReportInterval)))))
				r.PlayPoint = uint32(rng.Intn(1 << 20))
				reports = append(reports, r)
			}
		}
	}
	return reports
}

// TestRepartitionEquivalence is the partitioner's no-drop/no-dup
// property: routing one report stream through fleets of different sizes
// and merging each fleet's stores back together must reproduce the
// single-store run exactly — same report count, same sealed fingerprint
// — for every N.
func TestRepartitionEquivalence(t *testing.T) {
	reports := repartitionReports()

	direct := NewStore(0)
	for _, r := range reports {
		if err := direct.Submit(r); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	want := direct.Seal().Fingerprint()

	for _, n := range []int{1, 2, 3, 7, 13} {
		stores := make([]*Store, n)
		sinks := make([]Sink, n)
		for i := range stores {
			stores[i] = NewStore(0)
			sinks[i] = stores[i]
		}
		b := NewBalancer(sinks...)
		for _, r := range reports {
			if err := b.Submit(r); err != nil {
				t.Fatalf("shards=%d: Submit: %v", n, err)
			}
		}
		var sent uint64
		for _, c := range b.Sent() {
			sent += c
		}
		if sent != uint64(len(reports)) {
			t.Fatalf("shards=%d: sent %d of %d reports", n, sent, len(reports))
		}
		merged, err := MergeStores(stores...)
		if err != nil {
			t.Fatalf("shards=%d: MergeStores: %v", n, err)
		}
		if merged.Len() != len(reports) {
			t.Errorf("shards=%d: merged %d reports, want %d (drop or duplicate across the merge)",
				n, merged.Len(), len(reports))
		}
		if got := merged.Seal().Fingerprint(); got != want {
			t.Errorf("shards=%d: merged fingerprint %x, want %x", n, got, want)
		}
	}
}

// TestBalancerRoutesByShardOf pins the balancer to the partitioning
// hash: every report must land in exactly the store ShardOf names.
func TestBalancerRoutesByShardOf(t *testing.T) {
	const n = 5
	stores := make([]*Store, n)
	sinks := make([]Sink, n)
	for i := range stores {
		stores[i] = NewStore(0)
		sinks[i] = stores[i]
	}
	b := NewBalancer(sinks...)
	rng := rand.New(rand.NewSource(19))
	counts := make([]int, n)
	for i := 0; i < 1000; i++ {
		r := sampleReport(1+rng.Uint32(), _t0)
		counts[ShardOf(r.Addr, n)]++
		if err := b.Submit(r); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	// A report the owning sink refuses is returned, not counted.
	if err := b.Submit(sampleReport(0, _t0)); err == nil {
		t.Error("balancer swallowed a sink's refusal")
	}
	sent := b.Sent()
	for i := range stores {
		if stores[i].Len() != counts[i] {
			t.Errorf("shard %d holds %d reports, ShardOf assigned %d", i, stores[i].Len(), counts[i])
		}
		if sent[i] != uint64(counts[i]) {
			t.Errorf("shard %d sent counter %d, want %d", i, sent[i], counts[i])
		}
	}
}

func TestMergeStoresIntervalMismatch(t *testing.T) {
	a := NewStore(10 * time.Minute)
	b := NewStore(5 * time.Minute)
	if _, err := MergeStores(a, b); err == nil {
		t.Error("interval mismatch merged without error")
	}
	if _, err := MergeStores(); err == nil {
		t.Error("zero-shard merge succeeded")
	}
}

// encodeStream renders reports as one binary trace stream.
func encodeStream(t *testing.T, reports ...Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
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

// TestMergeStreamsTolerant feeds the merge one intact shard, one torn
// shard, and one file that is not a trace at all; tolerant mode must
// keep every intact record and account for exactly what it survived.
func TestMergeStreamsTolerant(t *testing.T) {
	intact := encodeStream(t, sampleReport(1, _t0), sampleReport(2, _t0))
	torn := encodeStream(t, sampleReport(3, _t0), sampleReport(4, _t0))
	torn = torn[:len(torn)-3] // cut inside the last record
	garbage := []byte("not a trace file")

	store, stats, err := MergeStreams(DefaultReportInterval, MergeOptions{Tolerant: true},
		bytes.NewReader(intact), bytes.NewReader(torn), bytes.NewReader(garbage))
	if err != nil {
		t.Fatalf("tolerant merge failed: %v", err)
	}
	if stats.Sources != 3 || stats.SkippedSources != 1 || stats.TornSources != 1 {
		t.Errorf("stats = %+v, want 3 sources, 1 skipped, 1 torn", stats)
	}
	if store.Len() != 3 || stats.Records != 3 {
		t.Errorf("merged %d reports (stats %d), want 3 (two intact + the torn shard's intact prefix)",
			store.Len(), stats.Records)
	}

	// Strict mode refuses both damaged inputs.
	if _, _, err := MergeStreams(DefaultReportInterval, MergeOptions{},
		bytes.NewReader(intact), bytes.NewReader(torn)); err == nil {
		t.Error("strict merge accepted a torn shard")
	}
	if _, _, err := MergeStreams(DefaultReportInterval, MergeOptions{},
		bytes.NewReader(garbage)); err == nil {
		t.Error("strict merge accepted a non-trace source")
	}

	// A fleet whose shards all died pre-header still compacts, to an
	// empty store.
	empty, stats, err := MergeStreams(DefaultReportInterval, MergeOptions{Tolerant: true},
		bytes.NewReader(nil), bytes.NewReader(garbage))
	if err != nil {
		t.Fatalf("all-skipped merge failed: %v", err)
	}
	if empty.Len() != 0 || stats.SkippedSources != 2 {
		t.Errorf("all-skipped merge: %d reports, stats %+v", empty.Len(), stats)
	}
}

// TestMergeFiles exercises the file entry point end to end, including
// shard-order stability of the merge.
func TestMergeFiles(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	const n = 3
	reports := repartitionReports()
	writers := make([][]Report, n)
	for _, r := range reports {
		i := ShardOf(r.Addr, n)
		writers[i] = append(writers[i], r)
	}
	for i, shard := range writers {
		p := fmt.Sprintf("%s/shard%02d.trace", dir, i+1)
		if err := writeTraceFile(p, shard); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	merged, stats, err := MergeFiles(paths, 0, MergeOptions{})
	if err != nil {
		t.Fatalf("MergeFiles: %v", err)
	}
	if int(stats.Records) != len(reports) {
		t.Fatalf("merged %d records, want %d", stats.Records, len(reports))
	}
	direct := NewStore(0)
	for _, r := range reports {
		if err := direct.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if merged.Seal().Fingerprint() != direct.Seal().Fingerprint() {
		t.Error("per-shard files merged to a different store than the direct run")
	}
	if _, _, err := MergeFiles([]string{dir + "/missing.trace"}, 0, MergeOptions{Tolerant: true}); err == nil {
		t.Error("unreadable path accepted (tolerance covers damaged contents, not missing files)")
	}
}

// TestFingerprintDiscriminates: the fingerprint must be insensitive to
// exactly the differences the sealed index erases (arrival order within
// an address is erased only past the latest report) and sensitive to
// everything else.
func TestFingerprintDiscriminates(t *testing.T) {
	a := NewStore(0)
	b := NewStore(0)
	for _, s := range []*Store{a, b} {
		for i := uint32(1); i <= 50; i++ {
			if err := s.Submit(sampleReport(i, _t0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if a.Seal().Fingerprint() != b.Seal().Fingerprint() {
		t.Error("identical stores fingerprint differently")
	}
	extra := sampleReport(7, _t0.Add(time.Minute))
	extra.PlayPoint = 999
	if err := b.Submit(extra); err != nil {
		t.Fatal(err)
	}
	if a.Seal().Fingerprint() == b.Seal().Fingerprint() {
		t.Error("superseding report did not change the fingerprint")
	}
}

// writeTraceFile persists reports as one binary trace file.
func writeTraceFile(path string, reports []Report) error {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		return err
	}
	for _, r := range reports {
		if err := w.Submit(r); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// TestShardedClientFleet drives a live fleet over UDP through the
// sharded client and checks every shard received exactly its own peers.
func TestShardedClientFleet(t *testing.T) {
	const n = 3
	stores := make([]*Store, n)
	fleet, err := NewFleet(FleetAddrs("127.0.0.1", n),
		func(i int) (Sink, error) { stores[i] = NewStore(0); return stores[i], nil },
		FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	cl, err := DialSharded(fleet.Addrs()...)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const peers = 200
	want := make([]int, n)
	for i := 0; i < peers; i++ {
		r := sampleReport(uint32(0x0b000001+i*31), _t0)
		want[ShardOf(r.Addr, n)]++
		if err := cl.Submit(r); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if i%50 == 49 {
			time.Sleep(time.Millisecond) // deployed clients jitter their sends
		}
	}
	waitFor(t, func() bool { return fleet.TotalStats().Received >= peers*9/10 })
	for i, st := range stores {
		if st.Len() == 0 && want[i] > 0 {
			t.Errorf("shard %d received nothing, client sent it %d reports", i, want[i])
		}
		// Loopback UDP may shed a few, but never deliver a foreign peer.
		st.Range(func(_ int64, _ time.Time, reports []Report) error { //magellan:allow erridle — the walk cannot fail; errors are the callback's
			for _, r := range reports {
				if ShardOf(r.Addr, n) != i {
					t.Errorf("shard %d holds report for %v (owner %d)", i, r.Addr, ShardOf(r.Addr, n))
				}
			}
			return nil
		})
	}
	sent := cl.Sent()
	for i := range sent {
		if sent[i] != uint64(want[i]) {
			t.Errorf("client sent %d to shard %d, want %d", sent[i], i, want[i])
		}
	}
}

// TestFleetLabeledMetrics: a multi-member fleet must expose the ingest
// families as one labeled series per shard, 1-based, in shard order.
func TestFleetLabeledMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	fleet, err := NewFleet(FleetAddrs("127.0.0.1", 2),
		func(int) (Sink, error) { return Discard, nil },
		FleetConfig{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	cl, err := DialSharded(fleet.Addrs()...)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 40; i++ {
		if err := cl.Submit(sampleReport(uint32(1+i), _t0)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return fleet.TotalStats().Received >= 30 })

	var expo bytes.Buffer
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	text := expo.String()
	for _, want := range []string{
		`magellan_ingest_received_total{shard="1"} `,
		`magellan_ingest_received_total{shard="2"} `,
		`magellan_ingest_queue_capacity{shard="1"} `,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// FuzzMergeShards merges three arbitrary per-shard payloads in tolerant
// mode: whatever the bytes — torn tails, duplicated heads, bit rot,
// valid traces — the merge must not panic, must not error, and must
// produce a store whose Seal survives. Fault-shaped seeds start the
// explorer where crashed shard servers actually leave files.
func FuzzMergeShards(f *testing.F) {
	rng := rand.New(rand.NewSource(23))
	stream := func(k int) []byte {
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < k; i++ {
			r := randomReport(rng)
			if err := w.Submit(r); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	whole := stream(4)
	f.Add(whole, stream(2), stream(1))                                  // three healthy shards
	f.Add(faults.TornTail(rng, whole), stream(3), []byte{})             // crashed shard + empty shard
	f.Add(faults.DuplicateHead(whole, 8), stream(2), []byte("garbage")) // middlebox replay + foreign file
	f.Add(faults.FlipBits(rng, append([]byte(nil), whole...), 5), []byte{}, []byte{})
	f.Add([]byte{}, []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		store, stats, err := MergeStreams(DefaultReportInterval, MergeOptions{Tolerant: true},
			bytes.NewReader(a), bytes.NewReader(b), bytes.NewReader(c))
		if err != nil {
			t.Fatalf("tolerant merge errored: %v (stats %+v)", err, stats)
		}
		ix := store.Seal()
		if ix == nil {
			t.Fatal("Seal returned nil")
		}
		if got := len(ix.Epochs()); store.Len() == 0 && got != 0 {
			t.Fatalf("empty store sealed to %d epochs", got)
		}
		_ = ix.Fingerprint() // must be computable for any surviving store
	})
}
