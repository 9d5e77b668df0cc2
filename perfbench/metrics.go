package main

// metricDef names one reported metric. End-to-end metrics are reported by
// every workload's untraced run. Per-layer metrics are reported by every
// workload's traced run, as 0 on workloads other than Workload ("" means
// every workload measures it). Moves names the end-to-end metric a change
// to the layer should move on that workload.
type metricDef struct {
	Name     string
	Unit     string
	Better   string
	Workload string
	Moves    string
}

const (
	wlSim     = "sim-10k"
	wlAnalyze = "analyze-36h"
	wlIngest  = "ingest-live"
)

// kernelStages are the per-epoch analysis stages core and live trace
// through core.Config.Tracer, plus the batch pipeline's merge and
// assembly.
var kernelStages = []string{"epoch_scan", "active_graph", "reciprocity", "small_world", "degree_snapshot", "merge_days", "assemble"}

// liveStages are the stages the live analyzer runs: the per-epoch kernel.
var liveStages = kernelStages[:5]

// endToEnd is reported by every workload. The operation whose latency
// is timed is the one the result's attempted count counts: one
// simulation run (sim-10k), one batch plus streaming analysis of the
// trace (analyze-36h), one report from its scheduled send to its entry
// into a shard sink (ingest-live). No tail latency is among them: a run
// holds three simulations or a dozen analyses, and the report tail of
// ingest-live moves with every stall of a shared host, so the tail is the
// traced ingest.latency_p99_ms instead.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "alloc_mb", Unit: "MB", Better: "lower"},
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"sim.new_s", "s", "lower", wlSim, "setup_s"},
		{"sim.run_s", "s", "lower", wlSim, "latency_p50_ms"},
		{"sim.self_s", "s", "lower", wlSim, "latency_p50_ms"},
		{"sim.emit_s", "s", "lower", wlSim, "latency_p50_ms"},
		{"sim.peer_vsec_per_s", "1/s", "higher", wlSim, "latency_p50_ms"},
		{"sim.gc_cpu_s", "s", "lower", wlSim, "latency_p50_ms peak_rss_mb"},
		{"sim.alloc_mb", "MB", "lower", wlSim, "alloc_mb"},
		{"sim.reports", "count", "higher", wlSim, "none (count)"},
		{"sim.joins", "count", "higher", wlSim, "none (count)"},

		{"analyze.batch_s", "s", "lower", wlAnalyze, "latency_p50_ms"},
		{"analyze.stream_s", "s", "lower", wlAnalyze, "latency_p50_ms"},
		{"trace.decode_s", "s", "lower", wlAnalyze, "latency_p50_ms"},
		{"trace.seal_s", "s", "lower", wlAnalyze, "latency_p50_ms"},
		{"core.analyze_s", "s", "lower", wlAnalyze, "latency_p50_ms"},
	}
	for _, st := range kernelStages {
		defs = append(defs, metricDef{"core.batch." + st + "_s", "s", "lower", wlAnalyze, "latency_p50_ms"})
	}
	for _, st := range kernelStages {
		defs = append(defs, metricDef{"core.stream." + st + "_s", "s", "lower", wlAnalyze, "latency_p50_ms"})
	}
	defs = append(defs, metricDef{"core.stream.other_s", "s", "lower", wlAnalyze, "latency_p50_ms"})
	for _, st := range kernelStages {
		defs = append(defs, metricDef{"core.batch." + st + "_alloc_mb", "MB", "lower", wlAnalyze, "alloc_mb"})
	}
	for _, st := range kernelStages {
		defs = append(defs, metricDef{"core.stream." + st + "_alloc_mb", "MB", "lower", wlAnalyze, "alloc_mb"})
	}

	defs = append(defs,
		metricDef{"ingest.delivery_ratio", "ratio", "higher", wlIngest, "failed (undelivered reports)"},
		metricDef{"ingest.latency_p99_ms", "ms", "lower", wlIngest, "user-visible: report tail, scheduled send → sink"},
		metricDef{"ingest.send_s", "s", "lower", wlIngest, "latency_p50_ms (shares the cores)"},
		metricDef{"loadgen.late_p99_ms", "ms", "lower", wlIngest, "diagnostic: generator lateness"},
		metricDef{"ingest.pre_sink_p50_ms", "ms", "lower", wlIngest, "latency_p50_ms"},
		metricDef{"ingest.pre_sink_p99_ms", "ms", "lower", wlIngest, "ingest.latency_p99_ms"},
		metricDef{"ingest.sink_s", "s", "lower", wlIngest, "latency_p50_ms"},
		metricDef{"ingest.queue_depth_max", "count", "lower", wlIngest, "ingest.latency_p99_ms"},
		metricDef{"ingest.queue_drops", "count", "lower", wlIngest, "failed (undelivered reports)"},
		metricDef{"ingest.rejected", "count", "lower", wlIngest, "failed (undelivered reports)"},
		metricDef{"ingest.kernel_lost", "count", "lower", wlIngest, "failed (undelivered reports)"},
		metricDef{"live.observe_s", "s", "lower", wlIngest, "ingest.latency_p99_ms live.freshness_p95_ms"},
		metricDef{"live.finalize_s", "s", "lower", wlIngest, "live.freshness_p50_ms live.freshness_p95_ms"},
	)
	for _, st := range liveStages {
		defs = append(defs, metricDef{"live." + st + "_s", "s", "lower", wlIngest, "live.freshness_p95_ms"})
	}
	defs = append(defs,
		metricDef{"live.stragglers", "count", "lower", wlIngest, "must stay 0"},
		metricDef{"live.freshness_p50_ms", "ms", "lower", wlIngest, "user-visible: epoch close delay"},
		metricDef{"live.freshness_p95_ms", "ms", "lower", wlIngest, "user-visible: epoch close delay"},
		metricDef{"live.drain_closed", "count", "lower", wlIngest, "none (epochs closed by Drain, excluded from freshness)"},
		metricDef{"trace_overhead_ms", "ms", "lower", "", "none (traced minus untraced latency_p50_ms)"},
	)
	return defs
}
