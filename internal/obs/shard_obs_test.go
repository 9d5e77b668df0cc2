package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestJournalShardLabelRoundTrip pins the sharded-ingest journal
// contract: RecordShard stamps the 1-based owning shard on the event,
// the label survives the JSONL round trip, and shard 0 (the unsharded
// default) is omitted from the encoding entirely — so journals written
// before the sharded tier existed and journals from single-server runs
// are byte-compatible.
func TestJournalShardLabelRoundTrip(t *testing.T) {
	j := NewJournal(8)
	id := ReportID{Addr: 0x3A0C2107, Channel: "CCTV1", Epoch: 42, Seq: 3}
	j.RecordShard(100, StageFault, VerdictLost, id, 2)
	j.RecordShard(110, StageServer, VerdictDelivered, id, 7)
	j.Record(120, StageEmit, VerdictEmitted, id) // delegates to shard 0

	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	text := buf.String()
	if !strings.Contains(text, `"shard":2`) || !strings.Contains(text, `"shard":7`) {
		t.Errorf("JSONL missing shard labels:\n%s", text)
	}
	if n := strings.Count(text, `"shard"`); n != 2 {
		t.Errorf("shard key appears %d times, want 2 (shard 0 must be omitted):\n%s", n, text)
	}

	got, err := ReadEventsJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadEventsJSONL: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("round-trip produced %d events, want 3", len(got))
	}
	for i, want := range []int32{2, 7, 0} {
		if got[i].Shard != want {
			t.Errorf("event %d round-tripped with shard %d, want %d", i, got[i].Shard, want)
		}
	}
}

// TestShardFuncExposition pins the per-shard family exposition the
// fleet metrics depend on: a one-member tier exactly as CounterFunc and
// GaugeFunc expose it, a larger one with one HELP/TYPE header and one
// shard="K" sample per member, 1-based and in member order.
func TestShardFuncExposition(t *testing.T) {
	r := NewRegistry()
	r.ShardCounterFunc("aa_received_total", "per-shard ingest", 2,
		func(i int) uint64 { return []uint64{10, 32}[i] })
	r.ShardGaugeFunc("zz_depth", "queue depth", 1,
		func(i int) float64 { return 3 + float64(i) })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_received_total per-shard ingest
# TYPE aa_received_total counter
aa_received_total{shard="1"} 10
aa_received_total{shard="2"} 32
# HELP zz_depth queue depth
# TYPE zz_depth gauge
zz_depth 3
`
	if sb.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestShardCounterIntegerAtAnyTierSize: a counter family prints the same
// integer digits whatever the tier size. A multi-member family used to
// render through the gauges' float formatting, so 1,234,567 read
// 1.234567e+06 with a shard label and 1234567 without one; gauges keep
// their float formatting.
func TestShardCounterIntegerAtAnyTierSize(t *testing.T) {
	for _, n := range []int{1, 2} {
		r := NewRegistry()
		r.ShardCounterFunc("x_total", "", n, func(int) uint64 { return 1234567 })
		r.ShardGaugeFunc("y", "", n, func(int) float64 { return 1234567 })
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(sb.String(), "\n") {
			switch {
			case strings.HasPrefix(line, "x_total"):
				if !strings.HasSuffix(line, " 1234567") {
					t.Errorf("n=%d: counter sample %q, want integer digits", n, line)
				}
			case strings.HasPrefix(line, "y"):
				if !strings.HasSuffix(line, " 1.234567e+06") {
					t.Errorf("n=%d: gauge sample %q, want the float form", n, line)
				}
			}
		}
	}
}
