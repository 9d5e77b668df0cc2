package trace

import (
	"bytes"
	"regexp"
	"testing"

	"github.com/magellan-p2p/magellan/internal/obs"
)

// fleetExposition starts an idle n-member fleet registering on a fresh
// registry and returns the registry's Prometheus text.
func fleetExposition(t *testing.T, n int) string {
	t.Helper()
	reg := obs.NewRegistry()
	fleet, err := NewFleet(FleetAddrs("127.0.0.1", n),
		func(int) (Sink, error) { return Discard, nil },
		FleetConfig{Obs: reg, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// latencyHistogram is the exposition of an empty
// magellan_sink_submit_duration_seconds, less its HELP line.
const latencyHistogram = `# TYPE magellan_sink_submit_duration_seconds histogram
magellan_sink_submit_duration_seconds_bucket{le="1e-05"} 0
magellan_sink_submit_duration_seconds_bucket{le="4e-05"} 0
magellan_sink_submit_duration_seconds_bucket{le="0.00016"} 0
magellan_sink_submit_duration_seconds_bucket{le="0.00064"} 0
magellan_sink_submit_duration_seconds_bucket{le="0.00256"} 0
magellan_sink_submit_duration_seconds_bucket{le="0.01024"} 0
magellan_sink_submit_duration_seconds_bucket{le="0.04096"} 0
magellan_sink_submit_duration_seconds_bucket{le="0.16384"} 0
magellan_sink_submit_duration_seconds_bucket{le="0.65536"} 0
magellan_sink_submit_duration_seconds_bucket{le="2.62144"} 0
magellan_sink_submit_duration_seconds_bucket{le="+Inf"} 0
magellan_sink_submit_duration_seconds_sum 0
magellan_sink_submit_duration_seconds_count 0
`

// TestFleetExpositionOneMember pins, byte for byte, what a one-member
// fleet puts on /metrics — every default magellan-serve: the six ingest
// families unlabeled, plus the sink-latency histogram.
func TestFleetExpositionOneMember(t *testing.T) {
	want := `# HELP magellan_ingest_queue_capacity Bound of the ingest queue.
# TYPE magellan_ingest_queue_capacity gauge
magellan_ingest_queue_capacity 64
# HELP magellan_ingest_queue_depth Datagrams currently waiting in the ingest queue.
# TYPE magellan_ingest_queue_depth gauge
magellan_ingest_queue_depth 0
# HELP magellan_ingest_queue_drops_total Datagrams shed because the ingest queue was full.
# TYPE magellan_ingest_queue_drops_total counter
magellan_ingest_queue_drops_total 0
# HELP magellan_ingest_received_total Reports decoded, validated, and accepted by the sink.
# TYPE magellan_ingest_received_total counter
magellan_ingest_received_total 0
# HELP magellan_ingest_rejected_total Datagrams dropped for failing decode or validation.
# TYPE magellan_ingest_rejected_total counter
magellan_ingest_rejected_total 0
# HELP magellan_ingest_sink_errors_total Well-formed reports the sink refused.
# TYPE magellan_ingest_sink_errors_total counter
magellan_ingest_sink_errors_total 0
# HELP magellan_sink_submit_duration_seconds Wall time of each sink submit, successful or not.
` + latencyHistogram
	if got := fleetExposition(t, 1); got != want {
		t.Errorf("one-member exposition:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// helpText matches a HELP line's text, which TestFleetExpositionTwoMembers
// masks.
var helpText = regexp.MustCompile(`(?m)^(# HELP \S+) .*$`)

// TestFleetExpositionTwoMembers pins a two-member fleet's exposition up
// to HELP wording: the same family names and types as one member, one
// shard="K" sample per member in shard order, and one pooled
// sink-latency histogram.
func TestFleetExpositionTwoMembers(t *testing.T) {
	want := `# HELP magellan_ingest_queue_capacity
# TYPE magellan_ingest_queue_capacity gauge
magellan_ingest_queue_capacity{shard="1"} 64
magellan_ingest_queue_capacity{shard="2"} 64
# HELP magellan_ingest_queue_depth
# TYPE magellan_ingest_queue_depth gauge
magellan_ingest_queue_depth{shard="1"} 0
magellan_ingest_queue_depth{shard="2"} 0
# HELP magellan_ingest_queue_drops_total
# TYPE magellan_ingest_queue_drops_total counter
magellan_ingest_queue_drops_total{shard="1"} 0
magellan_ingest_queue_drops_total{shard="2"} 0
# HELP magellan_ingest_received_total
# TYPE magellan_ingest_received_total counter
magellan_ingest_received_total{shard="1"} 0
magellan_ingest_received_total{shard="2"} 0
# HELP magellan_ingest_rejected_total
# TYPE magellan_ingest_rejected_total counter
magellan_ingest_rejected_total{shard="1"} 0
magellan_ingest_rejected_total{shard="2"} 0
# HELP magellan_ingest_sink_errors_total
# TYPE magellan_ingest_sink_errors_total counter
magellan_ingest_sink_errors_total{shard="1"} 0
magellan_ingest_sink_errors_total{shard="2"} 0
# HELP magellan_sink_submit_duration_seconds
` + latencyHistogram
	if got := helpText.ReplaceAllString(fleetExposition(t, 2), "$1"); got != want {
		t.Errorf("two-member exposition (HELP masked):\ngot:\n%s\nwant:\n%s", got, want)
	}
}
