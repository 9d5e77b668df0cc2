package main

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"sync"
	"time"

	"github.com/magellan-p2p/magellan/internal/core"
	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/live"
	"github.com/magellan-p2p/magellan/internal/obs"
	"github.com/magellan-p2p/magellan/internal/trace"
)

// ingestShards is the size of the fleet ingest-live replays into, and
// ingestRate its fixed offered load in reports per second: at 20k/s every
// report is delivered, while overload deliveries spread too widely across
// repeats on two cores to gate on.
const (
	ingestShards = 2
	ingestRate   = 20000
)

// rkey identifies a report within one trace.
type rkey struct {
	addr isp.Addr
	t    int64
}

// replayPlan is the ingest-live input in send order, with what the
// checks and the latency attribution need to know about it.
type replayPlan struct {
	reps   []trace.Report
	pos    map[rkey]int  // report → send position
	lastOf map[int64]int // epoch → send position of its last report
	epochN map[int64]int // epoch → reports in it
	shardN [ingestShards]int
	period time.Duration // between scheduled sends
}

func epochOf(r *trace.Report) int64 {
	return r.Time.UnixNano() / int64(trace.DefaultReportInterval)
}

func newReplayPlan(in *input) (*replayPlan, error) {
	rd, err := trace.NewReader(bytes.NewReader(in.raw))
	if err != nil {
		return nil, err
	}
	p := &replayPlan{
		pos:    make(map[rkey]int),
		lastOf: make(map[int64]int),
		epochN: make(map[int64]int),
		period: time.Second / ingestRate,
	}
	for {
		r, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		k := rkey{r.Addr, r.Time.UnixNano()}
		if _, dup := p.pos[k]; dup {
			return nil, errors.New("ingest input holds two reports from one address at one instant")
		}
		i := len(p.reps)
		p.pos[k] = i
		p.reps = append(p.reps, r)
		p.lastOf[epochOf(&r)] = i
		p.epochN[epochOf(&r)]++
		p.shardN[trace.ShardOf(r.Addr, ingestShards)]++
	}
	if len(p.reps) == 0 {
		return nil, errors.New("ingest input is empty")
	}
	return p, nil
}

// arrivalSink wraps one shard's store. Untraced, it reads the clock once
// per report, recording when the report entered the sink into slices
// sized up front; traced, it also sums the time spent in the store.
// Only the shard's ingest goroutine touches it until the fleet closes.
type arrivalSink struct {
	store *trace.Store
	base  time.Time
	at    []time.Duration
	keys  []rkey
	timed bool
	busy  time.Duration
}

func (s *arrivalSink) Submit(r trace.Report) error {
	t := time.Since(s.base)
	s.at = append(s.at, t)
	s.keys = append(s.keys, rkey{r.Addr, r.Time.UnixNano()})
	if !s.timed {
		return s.store.Submit(r)
	}
	err := s.store.Submit(r)
	s.busy += time.Since(s.base) - t
	return err
}

// watcher is the FleetConfig.Observe hook: it feeds the live analyzer
// and, when a report raises its shard's newest epoch (the only time the
// watermark can advance), stamps the epochs that have newly closed.
type watcher struct {
	a        *live.Analyzer
	base     time.Time
	timed    bool
	shardMax [ingestShards]int64 // slot k is touched only by shard k's goroutine
	busy     [ingestShards]time.Duration

	mu       sync.Mutex
	seen     int
	closedAt map[int64]time.Duration
}

func (w *watcher) observe(shard int, r trace.Report) {
	if w.timed {
		t0 := time.Now()
		w.a.Observe(shard, r)
		w.busy[shard] += time.Since(t0)
	} else {
		w.a.Observe(shard, r)
	}
	if e := epochOf(&r); e > w.shardMax[shard] {
		w.shardMax[shard] = e
		w.stampClosed()
	}
}

func (w *watcher) stampClosed() {
	w.mu.Lock()
	defer w.mu.Unlock()
	closed := w.a.Closed()
	if len(closed) == w.seen {
		return
	}
	now := time.Since(w.base)
	for _, c := range closed[w.seen:] {
		w.closedAt[c.Epoch] = now
	}
	w.seen = len(closed)
}

// replay is one pass of ingest-live.
type replay struct {
	setups      []float64
	lat         []float64 // ms, scheduled send → sink entry, per delivered report
	preSink     []float64 // ms, send returned → sink entry (traced)
	late        []float64 // ms, send start − scheduled send (traced)
	fresh       []float64 // ms, last report's scheduled send → epoch in Closed()
	drainClosed int
	delivered   int
	allocMB     float64
	sendBusy    time.Duration
	sinkBusy    time.Duration
	observeBusy time.Duration
	queueMax    int
	stats       trace.ServerStats
	sent        uint64
	finalizeS   float64
	stragglers  uint64
	prof        *obs.StageProfile
	stores      []*trace.Store
	closed      []*live.ClosedEpoch
}

// runIngest is ingest-live: one generator goroutine replays the cached
// trace open-loop at a fixed rate through one DialSharded client into an
// in-process 2-shard trace.Fleet whose sinks are trace.Stores, with
// FleetConfig.Observe feeding a live.Analyzer; the pass ends with Drain.
// One operation is one report; its latency runs from its scheduled send
// to its entry into the shard sink.
//
// Checks: every report is delivered, the shard stores merge to the
// input's fingerprint, and every epoch the live analyzer closed has the
// digest core.BatchEpochMetrics gives that epoch.
func runIngest(o opts) (*outcome, error) {
	in, err := loadInput(o.cacheDir, o.inputSpec(), o.inputPin())
	if err != nil {
		return nil, err
	}
	plan, err := newReplayPlan(in)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	var setups, lat, tails, tracedLat, fresh, allocs, drainClosed []float64
	delivered, sent := 0, 0
	w := newWindow(o.seconds, o.minPasses())
	for pass := 0; w.more(pass); pass++ {
		traced := o.traced && pass%2 == 1
		rp, err := replayOnce(o, in, plan, traced)
		if err != nil {
			return nil, err
		}
		// The checks merge every shard store into one more copy; collect
		// the pass's garbage first, or the peak RSS would depend on where
		// the collector happened to be when they ran.
		runtime.GC()
		checkReplay(out, pass, in, plan, rp)
		if traced {
			tracedLat = append(tracedLat, rp.lat...)
			addReplayLayers(out, rp)
			continue
		}
		setups = append(setups, rp.setups...)
		lat = append(lat, rp.lat...)
		tails = append(tails, p99(rp.lat))
		fresh = append(fresh, rp.fresh...)
		allocs = append(allocs, rp.allocMB)
		drainClosed = append(drainClosed, float64(rp.drainClosed))
		delivered += rp.delivered
		sent += len(plan.reps)
	}
	out.e2e["setup_s"] = median(setups)
	out.e2e["latency_p50_ms"] = median(lat)
	out.e2e["alloc_mb"] = median(allocs)
	if o.traced {
		out.add("ingest.delivery_ratio", float64(delivered)/float64(sent))
		// The tail is taken per pass and the run reports the median pass,
		// so one pass that met a stall of the host does not set it.
		out.add("ingest.latency_p99_ms", median(tails))
		out.add("live.freshness_p50_ms", median(fresh))
		out.add("live.freshness_p95_ms", quantile(fresh, 0.95))
		out.add("live.drain_closed", median(drainClosed))
		out.add("trace_overhead_ms", median(tracedLat)-median(lat))
	}
	return out, nil
}

func replayOnce(o opts, in *input, plan *replayPlan, traced bool) (*replay, error) {
	rp := &replay{prof: obs.NewStageProfile()}
	n := len(plan.reps)
	base := time.Now()
	var (
		sinks  [ingestShards]*arrivalSink
		wt     *watcher
		a      *live.Analyzer
		reg    *obs.Registry
		fleet  *trace.Fleet
		client *trace.ShardedClient
	)
	runtime.GC()
	c0 := readCounters()
	// Set up several times and keep the last; the median over every
	// construction is setup_s.
	for k := 0; k < setupReps; k++ {
		if fleet != nil {
			client.Close()
			fleet.Close()
		}
		for i := range sinks {
			sinks[i] = &arrivalSink{
				store: trace.NewStore(0),
				base:  base,
				at:    make([]time.Duration, 0, plan.shardN[i]),
				keys:  make([]rkey, 0, plan.shardN[i]),
				timed: traced,
			}
		}
		wt = &watcher{base: base, timed: traced, closedAt: make(map[int64]time.Duration, len(plan.lastOf))}
		for i := range wt.shardMax {
			wt.shardMax[i] = -1 << 62
		}
		lcfg := live.Config{Shards: ingestShards, DB: in.db, Analysis: core.Config{Seed: o.seed}}
		if traced {
			reg = obs.NewRegistry()
			lcfg.Obs = reg
			lcfg.NowNanos = func() int64 { return time.Now().UnixNano() }
			lcfg.Analysis.Tracer = rp.prof
		}

		t0 := time.Now()
		a = live.New(lcfg)
		wt.a = a
		var err error
		fleet, err = trace.NewFleet(trace.FleetAddrs("127.0.0.1", ingestShards),
			func(i int) (trace.Sink, error) { return sinks[i], nil },
			trace.FleetConfig{Observe: wt.observe})
		if err != nil {
			return nil, err
		}
		if client, err = trace.DialSharded(fleet.Addrs()...); err != nil {
			fleet.Close()
			return nil, err
		}
		rp.setups = append(rp.setups, time.Since(t0).Seconds())
	}
	defer fleet.Close()
	defer client.Close()

	// The generator: every report has a scheduled send instant, and
	// whatever is due goes out; lateness is charged to the report.
	start := time.Since(base) + time.Millisecond
	due := func(i int) time.Duration { return start + time.Duration(i)*plan.period }
	var sendAt []time.Duration
	if traced {
		sendAt = make([]time.Duration, n)
		rp.late = make([]float64, 0, n)
	}
	sendErrs := 0
	for i := 0; i < n; {
		now := time.Since(base)
		if traced {
			for s := 0; s < ingestShards; s++ {
				rp.queueMax = max(rp.queueMax, fleet.Server(s).QueueLen())
			}
		}
		for ; i < n && due(i) <= now; i++ {
			if !traced {
				if err := client.Submit(plan.reps[i]); err != nil {
					sendErrs++
				}
				continue
			}
			s0 := time.Since(base)
			err := client.Submit(plan.reps[i])
			s1 := time.Since(base)
			rp.late = append(rp.late, ms(s0-due(i)))
			sendAt[i] = s1
			rp.sendBusy += s1 - s0
			if err != nil {
				sendErrs++
			}
		}
		if i < n {
			if d := due(i) - time.Since(base); d > 0 {
				time.Sleep(d)
			}
		}
	}
	// Wait until every sent datagram is accounted for, giving up on the
	// ones the kernel lost after two seconds.
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if st := fleet.TotalStats(); st.Received+st.Dropped() >= uint64(n-sendErrs) {
			break
		}
	}
	for _, c := range client.Sent() {
		rp.sent += c
	}
	// Close stops the receive loops and waits for the ingest workers, so
	// every Observe has returned and the sinks are quiescent.
	if err := fleet.Close(); err != nil {
		return nil, err
	}
	rp.stats = fleet.TotalStats()
	a.Drain()
	rp.allocMB = readCounters().allocMBSince(c0)

	rp.drainClosed = len(a.Closed()) - wt.seen
	for e, at := range wt.closedAt {
		rp.fresh = append(rp.fresh, ms(at-due(plan.lastOf[e])))
	}
	for _, s := range sinks {
		rp.stores = append(rp.stores, s.store)
		rp.delivered += len(s.at)
		rp.sinkBusy += s.busy
		for k, at := range s.at {
			i := plan.pos[s.keys[k]]
			rp.lat = append(rp.lat, ms(at-due(i)))
			if traced {
				rp.preSink = append(rp.preSink, ms(at-sendAt[i]))
			}
		}
	}
	for _, b := range wt.busy {
		rp.observeBusy += b
	}
	rp.stragglers = a.Stragglers()
	for _, s := range reg.Snapshot(nil) {
		if s.Series == "magellan_live_finalize_duration_seconds_sum" {
			rp.finalizeS = s.Value
		}
	}
	rp.closed = a.Closed()
	return rp, nil
}

// checkReplay counts the pass's reports as attempted, and as failed
// those not delivered, those of epochs the live analyzer closed with the
// wrong digest or never closed, and all of them when the shard stores do
// not merge back to the input.
func checkReplay(out *outcome, pass int, in *input, plan *replayPlan, rp *replay) {
	n := len(plan.reps)
	out.attempted += n
	if lost := n - rp.delivered; lost > 0 {
		out.failN(lost, "ingest pass %d: %d of %d reports not delivered", pass, lost, n)
		return
	}
	merged, err := trace.MergeStores(rp.stores...)
	if err != nil || merged.Seal().Fingerprint() != in.fp {
		out.failN(n, "ingest pass %d: merged shard stores do not fingerprint as the input", pass)
		return
	}
	closed := make(map[int64]bool, len(rp.closed))
	for _, c := range rp.closed {
		closed[c.Epoch] = true
		if c.Digest != in.digests[c.Epoch] {
			out.failN(max(plan.epochN[c.Epoch], 1), "ingest pass %d: live epoch %d digest differs from the batch oracle", pass, c.Epoch)
		}
	}
	for e := range in.digests {
		if !closed[e] {
			out.failN(plan.epochN[e], "ingest pass %d: live never closed epoch %d", pass, e)
		}
	}
}

func addReplayLayers(out *outcome, rp *replay) {
	out.add("ingest.send_s", rp.sendBusy.Seconds())
	out.add("loadgen.late_p99_ms", p99(rp.late))
	out.add("ingest.pre_sink_p50_ms", median(rp.preSink))
	out.add("ingest.pre_sink_p99_ms", p99(rp.preSink))
	out.add("ingest.sink_s", rp.sinkBusy.Seconds())
	out.add("ingest.queue_depth_max", float64(rp.queueMax))
	out.add("ingest.queue_drops", float64(rp.stats.QueueDrops))
	out.add("ingest.rejected", float64(rp.stats.Rejected))
	out.add("ingest.kernel_lost", float64(rp.sent)-float64(rp.stats.Received+rp.stats.Dropped()))
	out.add("live.observe_s", rp.observeBusy.Seconds())
	out.add("live.finalize_s", rp.finalizeS)
	addStages(out, "live.", rp.prof, liveStages, false)
	out.add("live.stragglers", float64(rp.stragglers))
}
