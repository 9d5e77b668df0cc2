// Command magellan-sim runs a UUSee overlay simulation and writes the
// collected trace (and the run's IP-to-ISP database) to disk, ready for
// magellan-analyze.
//
// Example:
//
//	magellan-sim -concurrency 800 -duration 336h -flashcrowd \
//	    -trace uusee.trace -ispdb uusee.ispdb
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/magellan-p2p/magellan/internal/alert"
	"github.com/magellan-p2p/magellan/internal/core"
	"github.com/magellan-p2p/magellan/internal/faults"
	"github.com/magellan-p2p/magellan/internal/live"
	"github.com/magellan-p2p/magellan/internal/obs"
	"github.com/magellan-p2p/magellan/internal/obs/buildinfo"
	"github.com/magellan-p2p/magellan/internal/sim"
	"github.com/magellan-p2p/magellan/internal/stream"
	"github.com/magellan-p2p/magellan/internal/trace"
	"github.com/magellan-p2p/magellan/internal/tsdb"
	"github.com/magellan-p2p/magellan/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "magellan-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("magellan-sim", flag.ContinueOnError)
	var (
		seed        = fs.Int64("seed", 1, "random seed (same seed ⇒ identical trace)")
		duration    = fs.Duration("duration", 14*24*time.Hour, "simulated span")
		tick        = fs.Duration("tick", time.Minute, "bandwidth integration step")
		concurrency = fs.Float64("concurrency", 600, "target mean simultaneous peers")
		shards      = fs.Int("shards", 1, "exchange-tick worker goroutines (0: GOMAXPROCS); the trace is byte-identical for any value")
		channels    = fs.Int("channels", 48, "extra channels besides CCTV1/CCTV4")
		flashcrowd  = fs.Bool("flashcrowd", true, "inject the Oct 6 9pm mid-autumn flash crowd")
		mode        = fs.String("mode", "mesh", "exchange mode: mesh or tree")
		ispBlind    = fs.Bool("ispblind", false, "ablation: erase intra/inter-ISP link asymmetry")
		noRecommend = fs.Bool("norecommend", false, "ablation: disable partner recommendation")
		tracePath   = fs.String("trace", "uusee.trace", "output trace file (binary format)")
		ingestN     = fs.Int("ingest-shards", 1, "sharded ingest fleet size: write one <trace>.shardNN file per shard, partitioned by peer address (1: the single -trace file)")
		ispdbPath   = fs.String("ispdb", "uusee.ispdb", "output ISP database file")
		verbose     = fs.Bool("v", false, "print hourly progress")
		httpAddr    = fs.String("http", "", "HTTP /metrics + /events address for live run telemetry (empty: disabled)")
		liveOn      = fs.Bool("live", false, "run the live analysis plane alongside the simulation: /live dashboard and /live/epochs JSON on the -http address (requires -http)")
		linger      = fs.Duration("linger", 0, "keep the -http endpoint serving this long after the run finishes (0: exit immediately)")
		history     = fs.Duration("history", 0, "metrics-history sampling cadence for /history (0: disabled; requires -http)")
		histCap     = fs.Int("history-cap", tsdb.DefaultCapacity, "metrics-history samples retained per series")
		histOut     = fs.String("history-out", "", "write the retained metrics history as JSON lines to this file after the run (requires -history)")
		alertsOn    = fs.Bool("alerts", false, "evaluate the default alert rule pack each history sample and serve /alerts (requires -history)")
		selfLog     = fs.Duration("selflog", 0, "period for self-logging run and alert stats to stderr (0: disabled)")
		version     = fs.Bool("version", false, "print version and exit")

		journalCap = fs.Int("journal", 0, "flight-recorder ring capacity for report lifecycle tracing (0: disabled)")
		journalOut = fs.String("journal-out", "", "write the recorded lifecycle events as JSON lines to this file (requires -journal)")

		loss     = fs.Float64("loss", 0, "report datagram loss probability [0,1]")
		dup      = fs.Float64("dup", 0, "report datagram duplication probability [0,1]")
		reorder  = fs.Float64("reorder", 0, "report datagram reordering probability [0,1]")
		jitter   = fs.Duration("jitter", 0, "max extra report delivery delay (0: none)")
		truncate = fs.Float64("truncate", 0, "report datagram truncation probability [0,1]")

		massDepartAt   = fs.Duration("massdepart-at", 0, "churn: mass-departure offset from start (0: disabled)")
		massDepartFrac = fs.Float64("massdepart-frac", 0.5, "churn: mass-departure per-peer probability")
		flapFrac       = fs.Float64("flap-frac", 0, "churn: fraction of arrivals that flap (0: disabled)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println(buildinfo.String("magellan-sim"))
		return nil
	}

	if *concurrency <= 0 {
		return fmt.Errorf("-concurrency must be positive, got %v", *concurrency)
	}
	// sim.Config maps a zero Duration, Tick or ExtraChannels to a
	// default, so reject them here rather than run a silently different
	// simulation.
	if *duration <= 0 {
		return fmt.Errorf("-duration must be positive, got %v", *duration)
	}
	if *tick <= 0 {
		return fmt.Errorf("-tick must be positive, got %v", *tick)
	}
	if *channels < 1 {
		return fmt.Errorf("-channels must be ≥ 1, got %d", *channels)
	}
	if *shards < 0 {
		return fmt.Errorf("-shards must be ≥ 0, got %d", *shards)
	}
	workers := *shards
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	cfg := sim.Config{
		Seed:             *seed,
		Duration:         *duration,
		Tick:             *tick,
		MeanConcurrency:  *concurrency,
		Shards:           workers,
		ExtraChannels:    *channels,
		ISPBlind:         *ispBlind,
		NoRecommendation: *noRecommend,
	}
	switch *mode {
	case "mesh":
		cfg.Mode = stream.ModeMesh
	case "tree":
		cfg.Mode = stream.ModeTreePush
	default:
		return fmt.Errorf("unknown -mode %q (mesh|tree)", *mode)
	}
	if *flashcrowd {
		cfg.Crowds = []workload.FlashCrowd{workload.MidAutumnFlashCrowd()}
	}
	cfg.Faults = faults.Config{
		Loss:      *loss,
		Duplicate: *dup,
		Reorder:   *reorder,
		JitterMax: *jitter,
		Truncate:  *truncate,
	}
	if *massDepartAt > 0 {
		cfg.Churn.MassDepartures = []sim.MassDeparture{{Offset: *massDepartAt, Fraction: *massDepartFrac}}
	}
	cfg.Churn.Flapping.Fraction = *flapFrac

	if *journalOut != "" && *journalCap <= 0 {
		return fmt.Errorf("-journal-out requires -journal > 0")
	}
	var journal *obs.Journal
	if *journalCap > 0 {
		// Tick-stamped on purpose: the simulator records virtual instants,
		// so the journal is as reproducible as the trace itself.
		journal = obs.NewJournal(*journalCap)
		cfg.Journal = journal
	}

	if *ingestN < 1 {
		return fmt.Errorf("-ingest-shards must be ≥ 1, got %d", *ingestN)
	}
	if *liveOn && *httpAddr == "" {
		return fmt.Errorf("-live requires -http (the live plane serves /live and /live/epochs on the HTTP address)")
	}
	if *history > 0 && *httpAddr == "" {
		return fmt.Errorf("-history requires -http (the history samples the run's metrics registry)")
	}
	if *alertsOn && *history <= 0 {
		return fmt.Errorf("-alerts requires -history (the rule pack evaluates against the sampled history)")
	}
	if *histOut != "" && *history <= 0 {
		return fmt.Errorf("-history-out requires -history")
	}
	// liveA is assigned after sim.New (it needs the run's ISP database)
	// and strictly before s.Run starts the worker goroutines that submit
	// reports, so the tee closures below observe it race-free.
	var liveA *live.Analyzer
	tracePaths := []string{*tracePath}
	if *ingestN > 1 {
		tracePaths = make([]string, *ingestN)
		for i := range tracePaths {
			tracePaths[i] = fmt.Sprintf("%s.shard%02d", *tracePath, i+1)
		}
	}
	traceFiles := make([]*os.File, len(tracePaths))
	writers := make([]*trace.Writer, len(tracePaths))
	for i, p := range tracePaths {
		f, err := os.Create(p)
		if err != nil {
			return err
		}
		defer f.Close()
		w, err := trace.NewWriter(f)
		if err != nil {
			return err
		}
		traceFiles[i], writers[i] = f, w
	}
	sinkFor := func(shard int, w *trace.Writer) trace.Sink {
		if !*liveOn {
			return w
		}
		// The tee mirrors the daemon-side Observe hook: the live plane
		// sees exactly the reports the trace file accepted, after it
		// accepted them, so attaching it cannot change the trace bytes.
		return teeSink{inner: w, shard: shard,
			observe: func(shard int, r trace.Report) { liveA.Observe(shard, r) }}
	}
	if *ingestN > 1 {
		// Emission routes each report to its owning shard's writer; the
		// journal's report-path events carry the shard label.
		cfg.ShardSinks = make([]trace.Sink, len(writers))
		for i, w := range writers {
			cfg.ShardSinks[i] = sinkFor(i, w)
		}
	} else {
		cfg.Sink = sinkFor(0, writers[0])
	}

	start := time.Now()
	if *verbose {
		cfg.Progress = func(st sim.Stats) {
			// peers/sec-of-virtual-time: peer-seconds of overlay simulated
			// per wall second — the engine-throughput number long runs are
			// watched by.
			pvsRate := st.PeerVirtualSeconds / time.Since(start).Seconds()
			fmt.Fprintf(os.Stderr, "%s online=%d stable=%d joins=%d reports=%d peers/s=%.0f\n",
				st.Now.Format("2006-01-02 15:04"), st.Online, st.Stable, st.Joins, st.Reports, pvsRate)
		}
	}
	var metricsSrv *http.Server
	var metricsMux *http.ServeMux
	var metricsReg *obs.Registry
	var metricsAddr string
	// ready gates /healthz: true while the run is producing, false the
	// moment the run finishes and the drain/linger window begins.
	var ready atomic.Bool
	var hist *tsdb.DB
	var alertEng *alert.Engine
	if *httpAddr != "" {
		reg := obs.NewRegistry()
		buildinfo.Register(reg, "magellan-sim")
		obs.RegisterProcessMetrics(reg)
		// The simulator pushes population and fault gauges into reg at
		// tick boundaries; wall-clock derived rates live here in the CLI
		// layer, keeping the sim core free of clock reads.
		reg.GaugeFunc("magellan_sim_wall_seconds",
			"Wall-clock seconds since the run started.",
			func() float64 { return time.Since(start).Seconds() })
		cfg.Obs = reg

		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return err
		}
		if journal != nil {
			obs.RegisterJournalMetrics(reg, journal)
		}
		if *history > 0 {
			hist = tsdb.New(reg, tsdb.Config{
				Capacity: *histCap,
				Now:      func() int64 { return time.Now().UnixNano() },
			})
			if *alertsOn {
				alertEng, err = alert.New(hist, alert.DefaultRules(), alert.Config{
					Now: func() int64 { return time.Now().UnixNano() },
				})
				if err != nil {
					ln.Close() //magellan:allow erridle — best-effort cleanup; the rule-pack error wins
					return err
				}
			}
		}
		alert.RegisterMetrics(reg, alertEng)

		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(reg))
		mux.Handle("/events", obs.EventsHandler(journal))
		mux.Handle("/healthz", obs.HealthzHandler(buildinfo.String("magellan-sim"), ready.Load))
		// Nil-safe handlers, mounted unconditionally: a run without
		// -history serves the empty surfaces, never a config-dependent 404.
		mux.Handle("/history", tsdb.Handler(hist))
		mux.Handle("/alerts", alert.Handler(alertEng))
		metricsSrv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := metricsSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "magellan-sim: metrics endpoint:", err)
			}
		}()
		fmt.Printf("metrics on http://%s/metrics\n", ln.Addr())
		defer metricsSrv.Close()
		metricsMux, metricsReg, metricsAddr = mux, reg, ln.Addr().String()
	}
	if *history > 0 {
		// The sampler is pure measurement: it reads the same atomics a
		// /metrics scrape reads. Stopped by defer so test callers of run()
		// never leak it; Sample/Eval are mutex-guarded, so the final
		// history write racing a last tick is safe.
		samplerStop := make(chan struct{})
		var samplerWG sync.WaitGroup
		samplerWG.Add(1)
		go func() {
			defer samplerWG.Done()
			t := time.NewTicker(*history)
			defer t.Stop()
			for {
				select {
				case <-samplerStop:
					return
				case <-t.C:
					hist.Sample()
					alertEng.Eval()
				}
			}
		}()
		defer func() { close(samplerStop); samplerWG.Wait() }()
	}
	if *selfLog > 0 {
		logger := obs.NewLogger(os.Stderr, obs.LevelInfo)
		selfLogStop := make(chan struct{})
		var selfLogWG sync.WaitGroup
		selfLogWG.Add(1)
		go func() {
			defer selfLogWG.Done()
			t := time.NewTicker(*selfLog)
			defer t.Stop()
			for {
				select {
				case <-selfLogStop:
					return
				case <-t.C:
					firing, pending := alertEng.Counts()
					logger.Info("sim stats",
						"wallSeconds", int(time.Since(start).Seconds()),
						"historySamples", hist.Samples(),
						"alertsFiring", firing,
						"alertsPending", pending,
					)
				}
			}
		}()
		defer func() { close(selfLogStop); selfLogWG.Wait() }()
	}

	s, err := sim.New(cfg)
	if err != nil {
		return err
	}
	if *liveOn {
		liveA = live.New(live.Config{
			Shards:   *ingestN,
			DB:       s.Database(),
			Analysis: core.Config{Seed: *seed},
			Obs:      metricsReg,
			NowNanos: func() int64 { return time.Now().UnixNano() },
		})
		// http.ServeMux serializes Handle against serving, so mounting
		// after the server goroutine started is sound — and mounting
		// here, after liveA is assigned, is what makes the handlers'
		// view of it race-free.
		metricsMux.Handle("/live", live.DashboardHandler(liveA, hist, alertEng))
		metricsMux.Handle("/live/epochs", live.EpochsHandler(liveA))
		fmt.Printf("live topology observatory on http://%s/live (JSON on /live/epochs)\n", metricsAddr)
	}
	ready.Store(true)
	if err := s.Run(); err != nil {
		return err
	}
	// The run is over: /healthz flips to draining (503) for the rest of
	// the teardown and any -linger window, exactly like the trace
	// server's drain. Close out every in-flight epoch so the linger
	// window (and any final scrape) sees the complete series.
	ready.Store(false)
	liveA.Drain()
	for i, w := range writers {
		if err := w.Flush(); err != nil {
			return err
		}
		if err := traceFiles[i].Close(); err != nil {
			return err
		}
	}

	dbFile, err := os.Create(*ispdbPath)
	if err != nil {
		return err
	}
	defer dbFile.Close()
	if _, err := s.Database().WriteTo(dbFile); err != nil {
		return err
	}
	if err := dbFile.Close(); err != nil {
		return err
	}

	st := s.Stats()
	traceDest := *tracePath
	if *ingestN > 1 {
		traceDest = fmt.Sprintf("%s.shard{01..%02d}", *tracePath, *ingestN)
	}
	fmt.Printf("simulated %v in %v: %d joins, %d reports → %s (+ %s)\n",
		*duration, time.Since(start).Round(time.Millisecond), st.Joins, st.Reports, traceDest, *ispdbPath)
	if cfg.Faults.Enabled() {
		fmt.Printf("faults: %s torn-rejected=%d\n", st.Faults, st.TornReports)
	}
	if st.Flaps > 0 || st.MassDeparted > 0 {
		fmt.Printf("churn: flaps=%d massdeparted=%d\n", st.Flaps, st.MassDeparted)
	}
	if journal != nil {
		fmt.Printf("journal: recorded=%d dropped=%d held=%d\n",
			journal.Recorded(), journal.Dropped(), journal.Len())
	}
	if *journalOut != "" {
		jf, err := os.Create(*journalOut)
		if err != nil {
			return err
		}
		if err := journal.WriteJSONL(jf); err != nil {
			jf.Close() //magellan:allow erridle — best-effort cleanup; the write error wins
			return err
		}
		if err := jf.Close(); err != nil {
			return err
		}
		fmt.Printf("journal events written to %s\n", *journalOut)
	}
	if *histOut != "" {
		// One final sample so the snapshot ends with the finished run's
		// state, then persist for magellan-report -health.
		hist.Sample()
		alertEng.Eval()
		if err := writeHistory(hist, *histOut); err != nil {
			return err
		}
		fmt.Printf("metrics history written to %s\n", *histOut)
	}
	if *linger > 0 && metricsSrv != nil {
		// Give scrapers (and the CI smoke step) a window to read the
		// finished run's /metrics and /events before the process exits.
		fmt.Printf("lingering %v for telemetry readers\n", *linger)
		time.Sleep(*linger)
	}
	return nil
}

// writeHistory persists the retained metrics history as JSON lines.
func writeHistory(db *tsdb.DB, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := db.WriteJSONL(f); err != nil {
		f.Close() //magellan:allow erridle — best-effort cleanup; the write error wins
		return err
	}
	return f.Close()
}

// teeSink forwards each report to the live analyzer after the real
// sink accepted it — the simulator-side equivalent of the ingest
// fleet's Observe hook. Submission order (and so the trace bytes) is
// untouched; a report the sink rejects is never observed.
type teeSink struct {
	inner   trace.Sink
	shard   int
	observe func(shard int, r trace.Report)
}

func (t teeSink) Submit(r trace.Report) error {
	if err := t.inner.Submit(r); err != nil {
		return err
	}
	t.observe(t.shard, r)
	return nil
}
