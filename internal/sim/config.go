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
	// Sessions overrides the session-length model; nil means defaults.
	Sessions *workload.SessionModel

	// Protocol carries the UUSee protocol constants.
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

	// ServersPerChannel is how many origin streaming servers each channel
	// gets; defaults to 2. ServerUpKbps is their upload capacity;
	// defaults to 4 Mbps (about ten peers' worth of seeding per server).
	ServersPerChannel int
	ServerUpKbps      float64

	// ReportInterval and InitialReportDelay configure the measurement
	// instrumentation (Sec. 3.2 defaults: 10 and 20 minutes).
	ReportInterval     time.Duration
	InitialReportDelay time.Duration

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

	// ISPBlocks is the number of /16 blocks in the generated ISP
	// database; defaults to 1024.
	ISPBlocks int

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

// CheckScale rejects the scale settings sanitize would silently replace
// with a default, or that make no sense. magellan-sim and magellan-report
// call it on their parsed flags, so its errors name those flags.
func (c Config) CheckScale() error {
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
	}
	return nil
}

func (c Config) sanitize() (Config, error) {
	if c.MeanConcurrency <= 0 {
		return c, fmt.Errorf("sim: MeanConcurrency must be positive, got %v", c.MeanConcurrency)
	}
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
	if c.Mode == stream.ModeBlock && c.Tick > 6*time.Second {
		// One tick of stream (5 seg/s at 400 kbps) must stay under the
		// block-mode playback delay or relays cannot keep up, and must
		// fit in the 64-segment window.
		return c, fmt.Errorf("sim: block mode needs Tick ≤ 6s, got %v", c.Tick)
	}
	if c.Shards < 0 {
		return c, fmt.Errorf("sim: negative Shards")
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.ExtraChannels < 0 {
		return c, fmt.Errorf("sim: negative ExtraChannels")
	}
	if c.ExtraChannels == 0 {
		c.ExtraChannels = 48
	}
	c.Protocol = withProtocolDefaults(c.Protocol)
	if c.Mode == 0 {
		c.Mode = stream.ModeMesh
	}
	if c.Trackers <= 0 {
		c.Trackers = 1
	}
	if c.ServersPerChannel <= 0 {
		c.ServersPerChannel = 2
	}
	if c.ServerUpKbps <= 0 {
		c.ServerUpKbps = 4096
	}
	if c.ReportInterval <= 0 {
		c.ReportInterval = trace.DefaultReportInterval
	}
	if c.InitialReportDelay <= 0 {
		c.InitialReportDelay = trace.DefaultInitialDelay
	}
	if len(c.ShardSinks) > 0 {
		if c.Sink != nil {
			return c, fmt.Errorf("sim: Sink and ShardSinks are mutually exclusive")
		}
		c.Sink = trace.NewBalancer(c.ShardSinks...)
	}
	if c.Sink == nil {
		c.Sink = trace.Discard
	}
	if c.ISPBlocks <= 0 {
		c.ISPBlocks = 1024
	}
	for _, f := range c.Crowds {
		if err := workload.ValidateCrowd(f); err != nil {
			return c, err
		}
	}
	if err := c.Faults.Validate(); err != nil {
		return c, err
	}
	if err := c.Churn.validate(); err != nil {
		return c, err
	}
	c.Churn.Flapping = c.Churn.Flapping.withDefaults()
	return c, nil
}

// withProtocolDefaults round-trips a protocol config through its
// defaulting logic (exposed here to keep sanitize in one place).
func withProtocolDefaults(cfg protocol.Config) protocol.Config {
	d := protocol.DefaultConfig()
	if cfg.MaxBootstrap <= 0 {
		cfg.MaxBootstrap = d.MaxBootstrap
	}
	if cfg.TargetActive <= 0 {
		cfg.TargetActive = d.TargetActive
	}
	if cfg.MaxPartners <= 0 {
		cfg.MaxPartners = d.MaxPartners
	}
	if cfg.TrackerRefill <= 0 {
		cfg.TrackerRefill = d.TrackerRefill
	}
	if cfg.RecommendSize <= 0 {
		cfg.RecommendSize = d.RecommendSize
	}
	if cfg.AvailabilityHeadroomKbps <= 0 {
		cfg.AvailabilityHeadroomKbps = d.AvailabilityHeadroomKbps
	}
	if cfg.StarveQuality <= 0 {
		cfg.StarveQuality = d.StarveQuality
	}
	if cfg.StarveRounds <= 0 {
		cfg.StarveRounds = d.StarveRounds
	}
	if cfg.MaintInterval <= 0 {
		cfg.MaintInterval = d.MaintInterval
	}
	return cfg
}

// Stats is a point-in-time summary of the running simulation.
type Stats struct {
	Now     time.Time
	Online  int // live peers, servers excluded
	Stable  int // live peers online at least InitialReportDelay
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
