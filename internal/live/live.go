// Package live is the streaming incremental analysis plane: it
// subscribes to the ingest tier (trace.Fleet / trace.Server /
// trace.Store observers, or the simulator's report path) and maintains
// per-epoch topology state online, finalizing each epoch's Fig. 4–9
// metrics the moment the watermark passes it — while the batch
// pipeline would still be waiting for the trace to seal.
//
// The correctness contract is reconciliation against the sealed-index
// batch path: for every epoch the analyzer closes, its canonical
// encoding (core.AppendCanonical) is byte-identical to what
// core.BatchEpochMetrics produces for that epoch from the merged
// sealed store. That holds because the analyzer builds each epoch's
// columns with the sealed index's own builder, trace.EpochColumns —
// latest-report-by-peer dedup in per-shard arrival order (sound because
// trace.ShardOf assigns each address wholly to one shard), reporters
// sorted by address, visible peers sorted and deduplicated — and then
// finalizes them through core.EpochRunner, the shared per-epoch kernel
// under the same online policy the oracle uses.
//
// Epoch close is watermark-driven, by the same trace.Closer that
// core.AnalyzeStream uses, here with lateness 0: epoch e closes once
// every shard has seen a report from an epoch strictly after e. Reports
// that arrive for an already-closed epoch are dropped with accounting
// (stragglers).
//
// The package is covered by the determinism analyzer: it never reads a
// wall clock or ambient randomness. Finalize latency — the one
// inherently wall-clock measurement — is read through the injected
// Config.NowNanos; when that is nil (the deterministic default), no
// clock is read at all.
package live

import (
	"crypto/sha256"
	"slices"
	"sync"
	"time"

	"github.com/magellan-p2p/magellan/internal/core"
	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/obs"
	"github.com/magellan-p2p/magellan/internal/trace"
)

// Config tunes a live Analyzer.
type Config struct {
	// Interval is the epoch width; 0 means trace.DefaultReportInterval.
	Interval time.Duration
	// Shards is the number of ingest shards that will feed Observe
	// (the fleet size); 0 or 1 means a single unsharded source. The
	// watermark waits for every shard, so it must match the real fan-in
	// or epochs either close early (too small) or never (too large).
	Shards int
	// DB resolves addresses to ISPs for the intra-/inter-ISP splits;
	// nil means an empty database (every address Unknown).
	DB *isp.Database
	// Analysis tunes the per-epoch kernel under core's online policy:
	// HeavyEveryN defaults to the streaming cadence (the epoch count is
	// unknown online), and only snapshot instants inside the trace
	// produce Fig. 4 snapshots (there is no short-trace fallback). Every
	// other knob defaults exactly as core.Analyze defaults it, and
	// core.BatchEpochMetrics resolves the same config the same way.
	Analysis core.Config
	// Obs, when non-nil, receives the magellan_live_* metrics family.
	// Measurement-only, like every registry in the repo.
	Obs *obs.Registry
	// NowNanos, when non-nil, supplies wall-clock nanoseconds for the
	// finalize-latency histogram. The daemon layer injects the real
	// clock; the deterministic default (nil) skips latency measurement
	// entirely, keeping the package clean under the determinism
	// analyzer.
	NowNanos func() int64
}

// ClosedEpoch is one finalized epoch: its metrics, the canonical
// encoding those metrics reconcile through, and the encoding's SHA-256
// digest (what /live/epochs exposes for cheap operator-side diffing
// against `magellan-analyze -epoch-digests`).
type ClosedEpoch struct {
	Epoch int64
	Start time.Time
	// Reports is the number of stable peers retained after
	// latest-by-peer dedup — the rows of the epoch's report column.
	Reports   int
	Metrics   *core.EpochMetrics
	Canonical []byte
	Digest    [sha256.Size]byte
}

// inflight is one open epoch's accumulating column state: the sealed
// index's own column builder, fed in arrival order.
type inflight struct {
	cols  *trace.EpochColumns
	edges int // total partner-list entries across the held reports
}

// Analyzer maintains per-epoch topology state online. One mutex guards
// all state: Observe calls (one per ingested report, from each shard's
// ingest goroutine) do O(1) work under it, and the epoch finalization
// triggered by a watermark advance runs synchronously under the same
// lock on the observing goroutine. That stall is the back-pressure
// policy: the ingest servers' bounded queues absorb it, shedding with
// accounting if finalization ever outlasts a queue — the same
// shed-don't-block stance the rest of the measurement plane takes.
//
// All methods are safe for concurrent use and are no-ops on a nil
// receiver, so wiring can install the observer hook before deciding
// whether a live plane exists.
type Analyzer struct {
	interval time.Duration
	nowNanos func() int64

	mu            sync.Mutex
	epochs        *trace.Closer[inflight]
	run           *core.EpochRunner
	closed        []*ClosedEpoch
	spareCols     []*trace.EpochColumns // builders of finalized epochs, for reuse
	peersInFlight int
	edgesInFlight int

	finalizeHist *obs.Histogram
}

// New builds an Analyzer. Metrics are registered immediately when
// cfg.Obs is set; the analyzer holds no goroutines and needs no Close.
func New(cfg Config) *Analyzer {
	interval := cfg.Interval
	if interval <= 0 {
		interval = trace.DefaultReportInterval
	}
	db := cfg.DB
	if db == nil {
		db, _ = isp.NewDatabase(nil) // empty range set cannot fail
	}
	a := &Analyzer{
		interval: interval,
		nowNanos: cfg.NowNanos,
		epochs:   trace.NewCloser[inflight](cfg.Shards, 0),
		run:      core.NewEpochRunner(interval, db, cfg.Analysis),
	}
	if cfg.Obs != nil {
		a.register(cfg.Obs)
	}
	return a
}

// register exposes the magellan_live_* family. Scrape callbacks take
// the analyzer mutex briefly; they never block ingest for longer than
// one O(1) read.
func (a *Analyzer) register(reg *obs.Registry) {
	reg.CounterFunc("magellan_live_epochs_closed_total",
		"Epochs the live analyzer has finalized.",
		func() uint64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return uint64(len(a.closed))
		})
	reg.CounterFunc("magellan_live_stragglers_dropped_total",
		"Reports dropped for arriving after their epoch closed.",
		func() uint64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return a.epochs.Stragglers()
		})
	reg.GaugeFunc("magellan_live_watermark_lag_epochs",
		"Open epochs between the watermark and the newest report seen.",
		func() float64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return float64(a.epochs.Len())
		})
	reg.GaugeFunc("magellan_live_peers_in_flight",
		"Deduplicated reporting peers accumulated in open epochs.",
		func() float64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return float64(a.peersInFlight)
		})
	reg.GaugeFunc("magellan_live_edges_in_flight",
		"Partner-list entries accumulated in open epochs.",
		func() float64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return float64(a.edgesInFlight)
		})
	a.finalizeHist = reg.Histogram("magellan_live_finalize_duration_seconds",
		"Wall time to finalize one closed epoch (observed only when a clock is injected).",
		obs.DefLatencyBuckets())
}

// Observe feeds one accepted report from the given 0-based shard.
// Wire it as trace.FleetConfig.Observe (the shard index arrives
// already correct), as a Store observer or simulator tee with the
// producing shard's index, or with shard 0 for unsharded sources.
// Nil-receiver safe, so callers can install hooks unconditionally.
func (a *Analyzer) Observe(shard int, r trace.Report) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	// A shard index outside the configured fan-in would deadlock the
	// watermark if honored and corrupt it if clamped; the closer drops it
	// with accounting, like any other report the plane cannot place.
	fl := a.epochs.Observe(shard, r.Time.UnixNano()/int64(a.interval), a.finalizeLocked)
	if fl == nil {
		return
	}
	if fl.cols == nil {
		fl.cols = a.takeColumnsLocked()
	}
	// Latest-by-peer dedup, last write wins: per-address order is the
	// owning shard's arrival order, exactly like the sealed index over a
	// merged store.
	if old, replaced := fl.cols.Add(r); replaced {
		delta := len(r.Partners) - len(old.Partners)
		fl.edges += delta
		a.edgesInFlight += delta
	} else {
		fl.edges += len(r.Partners)
		a.peersInFlight++
		a.edgesInFlight += len(r.Partners)
	}
}

// takeColumnsLocked returns a column builder for a newly opened epoch,
// reusing a finalized epoch's buffers when one is spare.
func (a *Analyzer) takeColumnsLocked() *trace.EpochColumns {
	if n := len(a.spareCols); n > 0 {
		c := a.spareCols[n-1]
		a.spareCols = a.spareCols[:n-1]
		return c
	}
	return trace.NewEpochColumns()
}

// finalizeLocked closes one epoch: runs the shared per-epoch kernel over
// its columns and appends the result (with its canonical encoding and
// digest) to the closed series. It is the closer's close callback.
func (a *Analyzer) finalizeLocked(epoch int64, fl *inflight) {
	var t0 int64
	if a.nowNanos != nil {
		t0 = a.nowNanos()
	}
	a.peersInFlight -= fl.cols.Len()
	a.edgesInFlight -= fl.edges

	m := a.run.Run(epoch, fl.cols)
	canon := core.AppendCanonical(nil, m)
	a.closed = append(a.closed, &ClosedEpoch{
		Epoch:     epoch,
		Start:     m.Start,
		Reports:   m.Stable,
		Metrics:   m,
		Canonical: canon,
		Digest:    sha256.Sum256(canon),
	})
	fl.cols.Reset()
	a.spareCols = append(a.spareCols, fl.cols)
	if a.finalizeHist != nil && a.nowNanos != nil {
		a.finalizeHist.Observe(float64(a.nowNanos()-t0) / 1e9)
	}
}

// Drain finalizes every open epoch regardless of the watermark, in
// ascending order — end-of-run flush (simulation finished, daemon
// shutting down). The analyzer stays usable: reports for epochs at or
// below the drained frontier count as stragglers, newer epochs open
// fresh state. Nil-receiver safe.
func (a *Analyzer) Drain() {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.epochs.Drain(a.finalizeLocked)
}

// Closed returns the finalized epochs in close order (ascending epoch
// for watermark-driven closes). The slice is a copy; the entries are
// shared and must be treated as read-only.
func (a *Analyzer) Closed() []*ClosedEpoch {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return slices.Clone(a.closed)
}

// Stragglers returns how many reports were dropped for arriving after
// their epoch had closed (or with an out-of-range shard index).
func (a *Analyzer) Stragglers() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epochs.Stragglers()
}

// InFlightEpoch summarizes one open epoch's provisional state.
type InFlightEpoch struct {
	Epoch int64
	Start time.Time
	// Peers is the deduplicated reporter count so far; Edges the total
	// partner-list entries backing it.
	Peers int
	Edges int
}

// InFlight returns the open epochs in ascending order.
func (a *Analyzer) InFlight() []InFlightEpoch {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inFlightLocked()
}

func (a *Analyzer) inFlightLocked() []InFlightEpoch {
	out := make([]InFlightEpoch, 0, a.epochs.Len())
	a.epochs.Each(func(e int64, fl *inflight) {
		out = append(out, InFlightEpoch{
			Epoch: e,
			Start: time.Unix(0, e*int64(a.interval)).UTC(),
			Peers: fl.cols.Len(),
			Edges: fl.edges,
		})
	})
	return out
}

// Interval returns the epoch width the analyzer buckets by.
func (a *Analyzer) Interval() time.Duration {
	if a == nil {
		return 0
	}
	return a.interval
}
