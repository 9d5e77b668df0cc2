package obs

import (
	"strings"
	"testing"
)

// TestSnapshotEnumeration pins the snapshot contract: every collector
// kind contributes its exposition-identity series, sorted, with
// histograms reduced to _sum/_count.
func TestSnapshotEnumeration(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_zz_total", "")
	c.Add(7)
	g := reg.Gauge("test_gauge", "")
	g.Set(2.5)
	reg.CounterFunc("test_fn_total", "", func() uint64 { return 3 })
	reg.GaugeFunc("test_fn_gauge", "", func() float64 { return -1 })
	reg.GaugeWith("test_labeled", "", []Label{{Name: "kind", Value: "x"}}).Set(9)
	reg.ShardCounterFunc("test_family_total", "", 2, func(i int) uint64 { return []uint64{4, 6}[i] })
	h := reg.Histogram("test_hist_seconds", "", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(20)

	got := reg.Snapshot(nil)
	want := map[string]float64{
		"test_zz_total":                7,
		"test_gauge":                   2.5,
		"test_fn_total":                3,
		"test_fn_gauge":                -1,
		`test_labeled{kind="x"}`:       9,
		`test_family_total{shard="1"}`: 4,
		`test_family_total{shard="2"}`: 6,
		"test_hist_seconds_sum":        20.5,
		"test_hist_seconds_count":      2,
	}
	if len(got) != len(want) {
		t.Fatalf("snapshot has %d samples, want %d: %+v", len(got), len(want), got)
	}
	for _, s := range got {
		w, ok := want[s.Series]
		if !ok {
			t.Errorf("unexpected series %q", s.Series)
			continue
		}
		if s.Value != w {
			t.Errorf("%s = %v, want %v", s.Series, s.Value, w)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Series >= got[i].Series {
			t.Fatalf("snapshot not strictly sorted: %q before %q", got[i-1].Series, got[i].Series)
		}
	}
}

// TestSnapshotDeterministicOrder pins that two snapshots of the same
// registry enumerate the identical series list, and that the buffer is
// reused rather than regrown.
func TestSnapshotDeterministicOrder(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b_total", "").Add(1)
	reg.Counter("a_total", "").Add(2)
	reg.ShardGaugeFunc("c_family", "", 2, func(i int) float64 { return float64(i + 1) })
	first := reg.Snapshot(nil)
	names := make([]string, len(first))
	for i, s := range first {
		names[i] = s.Series
	}
	second := reg.Snapshot(first)
	if len(second) != len(names) {
		t.Fatalf("second snapshot has %d samples, want %d", len(second), len(names))
	}
	for i, s := range second {
		if s.Series != names[i] {
			t.Fatalf("series order changed at %d: %q vs %q", i, s.Series, names[i])
		}
	}
}

// TestProcessMetrics checks the magellan_process_* gauges register and
// expose plausible values.
func TestProcessMetrics(t *testing.T) {
	reg := NewRegistry()
	RegisterProcessMetrics(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"magellan_process_uptime_seconds",
		"magellan_process_goroutines",
		"magellan_process_heap_bytes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	vals := map[string]float64{}
	for _, s := range reg.Snapshot(nil) {
		vals[s.Series] = s.Value
	}
	if vals["magellan_process_goroutines"] < 1 {
		t.Errorf("goroutines gauge = %v, want >= 1", vals["magellan_process_goroutines"])
	}
	if vals["magellan_process_heap_bytes"] <= 0 {
		t.Errorf("heap bytes gauge = %v, want > 0", vals["magellan_process_heap_bytes"])
	}
}
