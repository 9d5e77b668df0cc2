package tsdb

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/magellan-p2p/magellan/internal/obs"
)

// fixedClock drives a DB through scripted instants.
type fixedClock struct{ t int64 }

func (c *fixedClock) now() int64      { return c.t }
func (c *fixedClock) advance(d int64) { c.t += d }
func sec(n int64) int64               { return n * 1e9 }
func newTestDB(capacity int) (*DB, *fixedClock, *obs.Registry, *obs.Counter, *obs.Gauge) {
	reg := obs.NewRegistry()
	ctr := reg.Counter("t_reports_total", "")
	g := reg.Gauge("t_depth", "")
	clk := &fixedClock{}
	return New(reg, Config{Capacity: capacity, Now: clk.now}), clk, reg, ctr, g
}

// TestRingWrapExactness pins the eviction contract: a ring of capacity
// C holding N > C samples retains exactly the newest C, and the
// eviction counters account for every displaced sample exactly once.
func TestRingWrapExactness(t *testing.T) {
	const capacity = 4
	db, clk, _, ctr, g := newTestDB(capacity)
	const total = 11
	for i := 1; i <= total; i++ {
		ctr.Add(uint64(i))
		g.Set(float64(i))
		clk.advance(sec(1))
		db.Sample()
	}
	if got := db.Samples(); got != total {
		t.Fatalf("Samples() = %d, want %d", got, total)
	}
	// Two series, each evicted total-capacity samples.
	if got, want := db.Evicted(), uint64(2*(total-capacity)); got != want {
		t.Fatalf("Evicted() = %d, want %d", got, want)
	}
	pts := db.Range("t_depth", math.MinInt64, math.MaxInt64)
	if len(pts) != capacity {
		t.Fatalf("retained %d points, want %d", len(pts), capacity)
	}
	for i, p := range pts {
		wantT := sec(int64(total - capacity + 1 + i))
		wantV := float64(total - capacity + 1 + i)
		if p.T != wantT || p.V != wantV {
			t.Errorf("point %d = {%d %v}, want {%d %v}", i, p.T, p.V, wantT, wantV)
		}
	}
	infos := db.Series()
	if len(infos) != 2 {
		t.Fatalf("Series() = %d entries, want 2", len(infos))
	}
	for _, si := range infos {
		if si.Count != capacity || si.Evicted != total-capacity {
			t.Errorf("%s: count=%d evicted=%d, want %d/%d", si.Name, si.Count, si.Evicted, capacity, total-capacity)
		}
	}
	// Instants ring wraps identically.
	inst := db.Instants()
	if len(inst) != capacity || inst[0] != sec(total-capacity+1) || inst[capacity-1] != sec(total) {
		t.Fatalf("Instants() = %v", inst)
	}
}

// TestQueries exercises Range bounds, RangeStep carry, Instant, the
// reset-aware Rate, and signed Delta on a hand-built series.
func TestQueries(t *testing.T) {
	db := New(nil, Config{Capacity: 16})
	// Counter with a reset: 0, 10, 25, 5 (reset), 8.
	vals := []float64{0, 10, 25, 5, 8}
	for i, v := range vals {
		db.mu.Lock()
		ts := sec(int64(i + 1))
		db.pushLocked(ts, "c_total", v)
		db.pushLocked(ts, "g", float64(i*i))
		db.instants.push(ts, 0, db.capacity)
		db.samples++
		db.lastT, db.hasLast = ts, true
		db.mu.Unlock()
	}

	// Range is exclusive-below, inclusive-above.
	pts := db.Range("c_total", sec(1), sec(3))
	if len(pts) != 2 || pts[0].T != sec(2) || pts[1].T != sec(3) {
		t.Fatalf("Range(1s,3s] = %v", pts)
	}
	if got := db.Range("missing", 0, sec(10)); got != nil {
		t.Fatalf("Range on unknown series = %v, want nil", got)
	}

	// RangeStep carries the latest value forward onto the grid.
	step := db.RangeStep("c_total", 0, sec(6), sec(2))
	want := []Point{{T: sec(2), V: 10}, {T: sec(4), V: 5}, {T: sec(6), V: 8}}
	if !reflect.DeepEqual(step, want) {
		t.Fatalf("RangeStep = %v, want %v", step, want)
	}

	if p, ok := db.Instant("c_total", sec(3)+1); !ok || p.V != 25 {
		t.Fatalf("Instant(3s+1) = %v %v", p, ok)
	}
	if _, ok := db.Instant("c_total", sec(1)-1); ok {
		t.Fatal("Instant before first sample should miss")
	}

	// Rate over the whole span: increases 10+15+0(reset)+3 = 28 over 4s.
	r, ok := db.Rate("c_total", sec(5), sec(10))
	if !ok || math.Abs(r-28.0/4.0) > 1e-12 {
		t.Fatalf("Rate = %v %v, want 7", r, ok)
	}
	// Rate needs two samples in window.
	if _, ok := db.Rate("c_total", sec(5), sec(1)/2); ok {
		t.Fatal("Rate with one sample in window should miss")
	}

	// Delta is signed: last - first = 8 - 0.
	d, ok := db.Delta("c_total", sec(5), sec(10))
	if !ok || d != 8 {
		t.Fatalf("Delta = %v %v, want 8", d, ok)
	}
}

// TestMatch covers exact-name and labeled-family addressing.
func TestMatch(t *testing.T) {
	db := New(nil, Config{Capacity: 4})
	db.mu.Lock()
	for _, name := range []string{
		`f_total{shard="1"}`, `f_total{shard="2"}`, "f_total_other", "plain",
	} {
		db.pushLocked(sec(1), name, 1)
	}
	db.mu.Unlock()
	if got := db.Match("plain"); !reflect.DeepEqual(got, []string{"plain"}) {
		t.Fatalf("Match(plain) = %v", got)
	}
	if got := db.Match("f_total"); !reflect.DeepEqual(got, []string{`f_total{shard="1"}`, `f_total{shard="2"}`}) {
		t.Fatalf("Match(f_total) = %v", got)
	}
	if got := db.Match("missing"); got != nil {
		t.Fatalf("Match(missing) = %v", got)
	}
}

// sampledTestDB is newTestDB(8) after six scripted samples: the
// history the JSONL tests and the FuzzReadJSONL seeds persist.
func sampledTestDB() *DB {
	db, clk, _, ctr, g := newTestDB(8)
	for i := 1; i <= 6; i++ {
		ctr.Add(3)
		g.Set(float64(10 * i))
		clk.advance(sec(5))
		db.Sample()
	}
	return db
}

// TestJSONLRoundTrip pins persistence: write → read reproduces every
// series, point for point, and the replay instants.
func TestJSONLRoundTrip(t *testing.T) {
	db := sampledTestDB()
	var buf bytes.Buffer
	if err := db.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()

	got, err := ReadJSONL(strings.NewReader(first), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Series(), db.Series()) {
		t.Fatalf("series diverge:\n got %+v\nwant %+v", got.Series(), db.Series())
	}
	if !reflect.DeepEqual(got.Instants(), db.Instants()) {
		t.Fatalf("instants diverge: %v vs %v", got.Instants(), db.Instants())
	}
	for _, si := range db.Series() {
		a := db.Range(si.Name, math.MinInt64, math.MaxInt64)
		b := got.Range(si.Name, math.MinInt64, math.MaxInt64)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: points diverge", si.Name)
		}
	}
	// Re-serialization is byte-identical (deterministic writer).
	var buf2 bytes.Buffer
	if err := got.WriteJSONL(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != first {
		t.Fatal("round-tripped JSONL is not byte-identical")
	}
}

// malformedHistory are inputs ReadJSONL must reject.
var malformedHistory = map[string]string{
	"garbage":         "{not json}\n",
	"empty series":    `{"t":1,"m":"","v":2}` + "\n",
	"time regression": `{"t":5,"m":"a","v":1}` + "\n" + `{"t":3,"m":"a","v":2}` + "\n",
}

// TestReadJSONLRejectsMalformed pins the strict read contract.
func TestReadJSONLRejectsMalformed(t *testing.T) {
	for name, in := range malformedHistory {
		if _, err := ReadJSONL(strings.NewReader(in), 4); err == nil {
			t.Errorf("%s: ReadJSONL accepted malformed input", name)
		}
	}
}

// TestNilDBZeroAllocs pins the disabled plane's cost: nothing.
func TestNilDBZeroAllocs(t *testing.T) {
	var db *DB
	if n := testing.AllocsPerRun(100, func() {
		db.Sample()
		db.SampleAt(1)
		if db.Samples() != 0 || db.Evicted() != 0 {
			t.Fatal("nil DB holds samples")
		}
	}); n != 0 {
		t.Fatalf("nil DB costs %v allocs/op, want 0", n)
	}
}

// TestStaleInstantDropped pins the monotonic-instants rule.
func TestStaleInstantDropped(t *testing.T) {
	db, clk, _, ctr, _ := newTestDB(4)
	ctr.Add(1)
	clk.t = sec(10)
	db.Sample()
	db.SampleAt(sec(10)) // duplicate
	db.SampleAt(sec(9))  // regression
	if got := db.Samples(); got != 1 {
		t.Fatalf("Samples() = %d after duplicate/stale instants, want 1", got)
	}
}
