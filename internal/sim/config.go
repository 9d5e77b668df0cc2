// Package sim composes the substrates — ISP database, network model,
// workload, UUSee protocol, stream exchange, and trace pipeline — into a
// deterministic simulation of the UUSee overlay over virtual time. A run
// produces exactly what the paper's measurement infrastructure produced:
// a stream of 10-minute reports from stable peers, which the analyzers in
// internal/core then chart.
package sim

import (
	"fmt"
	"time"

	"github.com/magellan-p2p/magellan/internal/faults"
	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/obs"
	"github.com/magellan-p2p/magellan/internal/protocol"
	"github.com/magellan-p2p/magellan/internal/stream"
	"github.com/magellan-p2p/magellan/internal/trace"
	"github.com/magellan-p2p/magellan/internal/workload"
)

// Config parameterizes a simulation run.
type Config struct {
	// Seed drives every random choice in the run; identical configs with
	// identical seeds produce identical traces.
	Seed int64
	// Start is the virtual start instant; defaults to Sunday Oct 1 2006
	// 00:00 Beijing time, the paper's trace window.
	Start time.Time
	// Duration is the simulated span; defaults to 14 days.
	Duration time.Duration
	// Tick is the bandwidth-integration step; defaults to one minute.
	Tick time.Duration
	// Shards is the number of worker goroutines the exchange tick fans
	// out across. 0 or 1 runs sequentially; any value produces
	// byte-identical traces (the tick's order-sensitive steps run on a
	// sequential spine regardless). Negative values are rejected.
	Shards int

	// MeanConcurrency is the target average online population (the paper
	// observes ~100,000; scaled runs use hundreds to thousands).
	MeanConcurrency float64
	// Crowds are flash-crowd events; nil means none.
	Crowds []workload.FlashCrowd
	// ExtraChannels is the number of channels besides CCTV1/CCTV4;
	// defaults to 48.
	ExtraChannels int

	// Protocol carries the protocol values an experiment varies; the
	// fixed ones are protocol package constants.
	Protocol protocol.Config
	// Mode selects mesh pull (default) or the tree-push ablation.
	Mode stream.Mode
	// Faults injects deterministic datagram-level faults on the report
	// path (peer → trace server): loss, duplication, reordering, jitter,
	// and truncation, matching what the paper's UDP measurement plane
	// endured. The zero value injects nothing and leaves the trace
	// byte-identical to a run without injection. Fates draw from a
	// dedicated generator (Seed+7), so enabling injection perturbs only
	// what the trace server sees — never the overlay's evolution.
	Faults faults.Config
	// Churn adds reproducible churn scenarios on top of the arrival
	// process: mass departures and flapping peers. (Flash-crowd joins,
	// the third scenario, are configured via Crowds.)
	Churn ChurnConfig
	// ISPBlind erases the intra-/inter-ISP link-quality asymmetry
	// (ablation).
	ISPBlind bool
	// NoRecommendation disables partner recommendation between
	// neighbours (ablation).
	NoRecommendation bool

	// Trackers is the number of tracking servers; defaults to 1. UUSee
	// ran several, each peer bound to one ("supplied by one of its
	// tracking servers"), which shards the membership view: peers
	// bootstrapped by different trackers see different candidate pools.
	Trackers int

	// Sink receives every report; defaults to trace.Discard.
	Sink trace.Sink

	// ShardSinks routes emission across a sharded ingest fleet instead
	// of one sink: the report of peer a goes to
	// ShardSinks[trace.ShardOf(a, len(ShardSinks))], and the journal's
	// report-path events carry the owning shard's 1-based label. With
	// one entry this is exactly Sink (unlabeled); setting both is an
	// error. Routing is address-arithmetic only — no entropy, no clock —
	// so a sharded run's overlay evolution is byte-identical to an
	// unsharded one.
	ShardSinks []trace.Sink

	// Progress, when non-nil, is invoked once per simulated hour.
	Progress func(Stats)

	// Obs, when non-nil, receives the run's live telemetry
	// (magellan_sim_*): population gauges, cumulative event counters,
	// and the fault injector's tally. The simulator pushes values at
	// tick boundaries from its own goroutine; a scraper only ever reads
	// atomics, so exposition cannot race the run. Telemetry is
	// measurement-only — a seeded run produces byte-identical traces
	// with Obs set or nil.
	Obs *obs.Registry

	// Journal, when non-nil, is the flight recorder: the simulator mints
	// a stable ReportID per emitted report (peer address, channel,
	// emission epoch, per-peer sequence) and records every lifecycle
	// step — emission, the fault path's verdicts, and the terminal
	// delivered/lost/rejected/sink_error outcome. Events are timestamped
	// by virtual tick, never wall clock, and recording is
	// measurement-only: a seeded run produces byte-identical traces with
	// Journal set or nil. Pass a tick-stamped obs.NewJournal; the
	// determinism analyzer bans constructing wall journals in here.
	Journal *obs.Journal
}

// Validate reports the first setting New would reject. Unlike New, it
// takes a zero Duration, Tick or ExtraChannels as an error rather than as
// a request for the default, so magellan-sim and magellan-report call it
// on their parsed flags before they create any file, and its scale
// errors name those flags.
func (c Config) Validate() error {
	switch {
	case c.MeanConcurrency <= 0:
		return fmt.Errorf("-concurrency must be positive, got %v", c.MeanConcurrency)
	case c.Duration <= 0:
		return fmt.Errorf("-duration must be positive, got %v", c.Duration)
	case c.Tick <= 0:
		return fmt.Errorf("-tick must be positive, got %v", c.Tick)
	case c.ExtraChannels < 1:
		return fmt.Errorf("-channels must be ≥ 1, got %d", c.ExtraChannels)
	case c.Shards < 0:
		return fmt.Errorf("-shards must be ≥ 0, got %d", c.Shards)
	case c.Mode == stream.ModeBlock && c.Tick > 6*time.Second:
		// One tick of stream (5 seg/s at 400 kbps) must stay under the
		// block-mode playback delay or relays cannot keep up, and must
		// fit in the 64-segment window.
		return fmt.Errorf("sim: block mode needs Tick ≤ 6s, got %v", c.Tick)
	case len(c.ShardSinks) > 0 && c.Sink != nil:
		return fmt.Errorf("sim: Sink and ShardSinks are mutually exclusive")
	case c.Protocol.MaxPartners > protocol.MaxRankedPartners:
		return fmt.Errorf("sim: Protocol.MaxPartners must be ≤ %d, got %d",
			protocol.MaxRankedPartners, c.Protocol.MaxPartners)
	}
	for _, f := range c.Crowds {
		if err := workload.ValidateCrowd(f); err != nil {
			return err
		}
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return c.Churn.validate()
}

// sanitize fills the zero fields with their defaults, validates the
// result, and derives the fields Validate does not judge.
func (c Config) sanitize() (Config, error) {
	if c.Start.IsZero() {
		c.Start = workload.TraceStart()
	}
	if c.Duration <= 0 {
		c.Duration = 14 * 24 * time.Hour
	}
	if c.Tick <= 0 {
		c.Tick = time.Minute
		if c.Mode == stream.ModeBlock {
			c.Tick = 5 * time.Second
		}
	}
	if c.ExtraChannels == 0 {
		c.ExtraChannels = 48
	}
	if err := c.Validate(); err != nil {
		return c, err
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	c.Protocol = c.Protocol.WithDefaults()
	if c.Mode == 0 {
		c.Mode = stream.ModeMesh
	}
	if c.Trackers <= 0 {
		c.Trackers = 1
	}
	if len(c.ShardSinks) > 0 {
		c.Sink = trace.NewBalancer(c.ShardSinks...)
	}
	if c.Sink == nil {
		c.Sink = trace.Discard
	}
	return c, nil
}

// Stats is a point-in-time summary of the running simulation.
type Stats struct {
	Now     time.Time
	Online  int // live peers, servers excluded
	Stable  int // live peers online at least trace.DefaultInitialDelay
	Servers int
	Joins   uint64 // cumulative joins, flapper rejoins included
	Reports uint64 // cumulative reports submitted

	// Flaps counts flapper departures that scheduled a rejoin;
	// MassDeparted counts peers torn down by mass-departure events.
	Flaps        uint64
	MassDeparted uint64
	// TornReports counts report datagrams that arrived truncated and
	// were rejected before reaching the sink. Faults is the injector's
	// full tally; both stay zero with injection disabled.
	TornReports uint64
	Faults      faults.Tally

	// PeerVirtualSeconds is the cumulative integral of the online
	// population over virtual time (Σ online × tick). Divided by wall
	// time it yields the engine's peers/sec-of-virtual-time throughput,
	// the scaling metric long runs report.
	PeerVirtualSeconds float64
}

// ISPShares returns the population shares used for peer placement (the
// Fig. 2 mix).
func ISPShares() map[isp.ISP]float64 { return isp.DefaultShares() }
