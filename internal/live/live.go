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
// runs the very same per-epoch kernel, core.AnalyzeEpochMetrics, over
// those columns.
//
// Epoch close is watermark-driven: epoch e closes once every shard has
// seen a report from an epoch strictly after e. Reports that arrive
// for an already-closed epoch are dropped with accounting
// (stragglers), mirroring core.AnalyzeStream's tolerance policy.
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

// DefaultHeavyEveryN is the small-world cadence when the config leaves
// it unset: an online analyzer cannot know the final epoch count, so
// the batch default (≈ 240 computed points) is unavailable. Shared
// with core.AnalyzeStream and core.BatchEpochMetrics, which is what
// keeps default-config live runs reconcilable against the oracle.
const DefaultHeavyEveryN = core.StreamingHeavyEveryN

// noEpoch marks "no epoch seen yet" in watermark state; every real
// epoch index is far above it.
const noEpoch = -1 << 62

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
	// Analysis tunes the per-epoch kernel. HeavyEveryN defaults to
	// DefaultHeavyEveryN (the epoch count is unknown online); every
	// other knob defaults exactly as core.Analyze defaults it. For
	// byte-equivalence with a batch run, both sides must resolve to the
	// same sanitized config — in particular an explicit HeavyEveryN and
	// snapshot instants that exist in the trace (the online analyzer
	// cannot apply the batch path's short-trace snapshot fallback).
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
	cfg      core.Config // sanitized
	db       *isp.Database
	nowNanos func() int64

	mu            sync.Mutex
	shardMax      []int64 // per-shard newest epoch seen
	pending       map[int64]*inflight
	closedThrough int64 // epochs ≤ this are closed; arrivals for them are stragglers
	closed        []*ClosedEpoch
	index         int // finalization position, drives the heavy cadence
	scratch       *core.EpochScratch
	spareCols     []*trace.EpochColumns // builders of finalized epochs, for reuse
	snapLabels    map[int64]string
	stragglers    uint64
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
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	db := cfg.DB
	if db == nil {
		db, _ = isp.NewDatabase(nil) // empty range set cannot fail
	}
	ac := cfg.Analysis
	if ac.HeavyEveryN <= 0 {
		ac.HeavyEveryN = DefaultHeavyEveryN
	}
	ac = ac.Sanitized(0)

	a := &Analyzer{
		interval:      interval,
		cfg:           ac,
		db:            db,
		nowNanos:      cfg.NowNanos,
		shardMax:      make([]int64, shards),
		pending:       make(map[int64]*inflight),
		closedThrough: noEpoch,
		scratch:       core.NewEpochScratch(),
		snapLabels:    core.SnapshotLabels(interval, ac.Snapshots),
	}
	for i := range a.shardMax {
		a.shardMax[i] = noEpoch
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
			return a.stragglers
		})
	reg.GaugeFunc("magellan_live_watermark_lag_epochs",
		"Open epochs between the watermark and the newest report seen.",
		func() float64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return float64(len(a.pending))
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
	epoch := r.Time.UnixNano() / int64(a.interval)
	a.mu.Lock()
	defer a.mu.Unlock()
	if shard < 0 || shard >= len(a.shardMax) {
		// A shard index outside the configured fan-in would deadlock the
		// watermark if honored and corrupt it if clamped; drop with
		// accounting, like any other report the plane cannot place.
		a.stragglers++
		return
	}
	if epoch <= a.closedThrough {
		a.stragglers++
		return
	}
	fl := a.pending[epoch]
	if fl == nil {
		fl = &inflight{cols: a.takeColumnsLocked()}
		a.pending[epoch] = fl
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
	if epoch > a.shardMax[shard] {
		a.shardMax[shard] = epoch
		a.advanceLocked()
	}
}

// advanceLocked recomputes the watermark (the minimum over every
// shard's newest epoch) and finalizes all open epochs strictly below
// it, in ascending order.
func (a *Analyzer) advanceLocked() {
	w := a.shardMax[0]
	for _, m := range a.shardMax[1:] {
		if m < w {
			w = m
		}
	}
	if w == noEpoch {
		return // some shard has not reported yet
	}
	var ready []int64
	for e := range a.pending {
		if e < w {
			ready = append(ready, e)
		}
	}
	slices.Sort(ready)
	for _, e := range ready {
		a.finalizeLocked(e)
	}
	if w-1 > a.closedThrough {
		a.closedThrough = w - 1
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

// finalizeLocked closes one epoch: builds the sealed index's column
// layout from the deduplicated reports, runs the shared per-epoch
// kernel, and appends the result (with its canonical encoding and
// digest) to the closed series.
func (a *Analyzer) finalizeLocked(epoch int64) {
	fl := a.pending[epoch]
	delete(a.pending, epoch)
	if fl == nil {
		return
	}
	var t0 int64
	if a.nowNanos != nil {
		t0 = a.nowNanos()
	}
	a.peersInFlight -= fl.cols.Len()
	a.edgesInFlight -= fl.edges

	latest, addrs, all := fl.cols.Columns()
	start := time.Unix(0, epoch*int64(a.interval)).UTC()
	v := core.NewColumnsEpochView(epoch, start, latest, addrs, all)
	heavy := a.index%a.cfg.HeavyEveryN == 0
	m := core.AnalyzeEpochMetrics(v, a.db, a.cfg, heavy, a.snapLabels[epoch], a.scratch)
	a.index++

	canon := core.AppendCanonical(nil, m)
	a.closed = append(a.closed, &ClosedEpoch{
		Epoch:     epoch,
		Start:     start,
		Reports:   len(latest),
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
	ready := make([]int64, 0, len(a.pending))
	for e := range a.pending {
		ready = append(ready, e)
	}
	slices.Sort(ready)
	for _, e := range ready {
		a.finalizeLocked(e)
	}
	if n := len(ready); n > 0 && ready[n-1] > a.closedThrough {
		a.closedThrough = ready[n-1]
	}
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
	return a.stragglers
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
	epochs := make([]int64, 0, len(a.pending))
	for e := range a.pending {
		epochs = append(epochs, e)
	}
	slices.Sort(epochs)
	out := make([]InFlightEpoch, len(epochs))
	for i, e := range epochs {
		fl := a.pending[e]
		out[i] = InFlightEpoch{
			Epoch: e,
			Start: time.Unix(0, e*int64(a.interval)).UTC(),
			Peers: fl.cols.Len(),
			Edges: fl.edges,
		}
	}
	return out
}

// Interval returns the epoch width the analyzer buckets by.
func (a *Analyzer) Interval() time.Duration {
	if a == nil {
		return 0
	}
	return a.interval
}
