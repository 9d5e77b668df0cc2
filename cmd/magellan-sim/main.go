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
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"time"

	"github.com/magellan-p2p/magellan/internal/core"
	"github.com/magellan-p2p/magellan/internal/live"
	"github.com/magellan-p2p/magellan/internal/obs"
	"github.com/magellan-p2p/magellan/internal/obs/buildinfo"
	"github.com/magellan-p2p/magellan/internal/opsurface"
	"github.com/magellan-p2p/magellan/internal/sim"
	"github.com/magellan-p2p/magellan/internal/stream"
	"github.com/magellan-p2p/magellan/internal/trace"
	"github.com/magellan-p2p/magellan/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "magellan-sim:", err)
		os.Exit(1)
	}
}

// options holds every magellan-sim flag, bound by flagSet: the
// simulation's own straight into cfg, the rest for run to apply.
type options struct {
	cfg                   sim.Config
	mode, tracePath       string
	ispdbPath, journalOut string
	ingestN, journalCap   int
	flashcrowd, liveOn    bool
	verbose, version      bool
	linger, selfLog       time.Duration
	massDepartAt          time.Duration
	massDepartFrac        float64
	surface               opsurface.Flags
}

func (o *options) flagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("magellan-sim", flag.ContinueOnError)
	c := &o.cfg
	fs.Int64Var(&c.Seed, "seed", 1, "random seed (same seed ⇒ identical trace)")
	fs.DurationVar(&c.Duration, "duration", 14*24*time.Hour, "simulated span")
	fs.DurationVar(&c.Tick, "tick", time.Minute, "bandwidth integration step")
	fs.Float64Var(&c.MeanConcurrency, "concurrency", 600, "target mean simultaneous peers")
	fs.IntVar(&c.Shards, "shards", 1, "exchange-tick worker goroutines (0: GOMAXPROCS); the trace is byte-identical for any value")
	fs.IntVar(&c.ExtraChannels, "channels", 48, "extra channels besides CCTV1/CCTV4")
	fs.BoolVar(&o.flashcrowd, "flashcrowd", true, "inject the Oct 6 9pm mid-autumn flash crowd")
	fs.StringVar(&o.mode, "mode", "mesh", "exchange mode: mesh or tree")
	fs.BoolVar(&c.ISPBlind, "ispblind", false, "ablation: erase intra/inter-ISP link asymmetry")
	fs.BoolVar(&c.NoRecommendation, "norecommend", false, "ablation: disable partner recommendation")
	fs.StringVar(&o.tracePath, "trace", "uusee.trace", "output trace file (binary format)")
	fs.IntVar(&o.ingestN, "ingest-shards", 1, "sharded ingest fleet size: write one <trace>.shardNN file per shard, partitioned by peer address (1: the single -trace file)")
	fs.StringVar(&o.ispdbPath, "ispdb", "uusee.ispdb", "output ISP database file")
	fs.BoolVar(&o.verbose, "v", false, "print hourly progress")
	fs.BoolVar(&o.liveOn, "live", false, "run the live analysis plane alongside the simulation: /live dashboard and /live/epochs JSON on the -http address (requires -http)")
	fs.DurationVar(&o.linger, "linger", 0, "keep the -http endpoint serving this long after the run finishes (0: exit immediately)")
	fs.DurationVar(&o.selfLog, "selflog", 0, "period for self-logging run and alert stats to stderr (0: disabled)")
	fs.BoolVar(&o.version, "version", false, "print version and exit")
	fs.IntVar(&o.journalCap, "journal", 0, "flight-recorder ring capacity for report lifecycle tracing (0: disabled)")
	fs.StringVar(&o.journalOut, "journal-out", "", "write the recorded lifecycle events as JSON lines to this file (requires -journal)")
	fs.Float64Var(&c.Faults.Loss, "loss", 0, "report datagram loss probability [0,1]")
	fs.Float64Var(&c.Faults.Duplicate, "dup", 0, "report datagram duplication probability [0,1]")
	fs.Float64Var(&c.Faults.Reorder, "reorder", 0, "report datagram reordering probability [0,1]")
	fs.DurationVar(&c.Faults.JitterMax, "jitter", 0, "max extra report delivery delay (0: none)")
	fs.Float64Var(&c.Faults.Truncate, "truncate", 0, "report datagram truncation probability [0,1]")
	fs.DurationVar(&o.massDepartAt, "massdepart-at", 0, "churn: mass-departure offset from start (0: disabled)")
	fs.Float64Var(&o.massDepartFrac, "massdepart-frac", 0.5, "churn: mass-departure per-peer probability")
	fs.Float64Var(&c.Churn.Flapping.Fraction, "flap-frac", 0, "churn: fraction of arrivals that flap (0: disabled)")
	o.surface.Register(fs)
	return fs
}

func run(args []string, stdout io.Writer) error {
	var o options
	if err := o.flagSet().Parse(args); err != nil {
		return err
	}
	if o.version {
		_, err := fmt.Fprintln(stdout, buildinfo.String("magellan-sim"))
		return err
	}
	out := log.New(stdout, "", 0) // the run's report lines, as fmt.Printf would write them

	cfg := o.cfg
	switch o.mode {
	case "mesh":
		cfg.Mode = stream.ModeMesh
	case "tree":
		cfg.Mode = stream.ModeTreePush
	default:
		return fmt.Errorf("unknown -mode %q (mesh|tree)", o.mode)
	}
	if o.flashcrowd {
		cfg.Crowds = []workload.FlashCrowd{workload.MidAutumnFlashCrowd()}
	}
	if o.massDepartAt > 0 {
		cfg.Churn.MassDepartures = []sim.MassDeparture{{Offset: o.massDepartAt, Fraction: o.massDepartFrac}}
	}
	// The whole config is checked before any output file is created, so
	// a rejected run leaves an existing trace untouched.
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Shards == 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}

	if o.journalOut != "" && o.journalCap <= 0 {
		return fmt.Errorf("-journal-out requires -journal > 0")
	}
	if o.ingestN < 1 {
		return fmt.Errorf("-ingest-shards must be ≥ 1, got %d", o.ingestN)
	}
	if o.liveOn && o.surface.HTTP == "" {
		return fmt.Errorf("-live requires -http (the live plane serves /live and /live/epochs on the HTTP address)")
	}
	if o.surface.History > 0 && o.surface.HTTP == "" {
		return fmt.Errorf("-history requires -http (the history samples the run's metrics registry)")
	}
	var journal *obs.Journal
	if o.journalCap > 0 {
		// Tick-stamped on purpose: the simulator records virtual instants,
		// so the journal is as reproducible as the trace itself.
		journal = obs.NewJournal(o.journalCap)
		cfg.Journal = journal
	}
	// The surface binds -http before any output file is created, so a
	// busy port leaves an existing trace untouched.
	surf, err := opsurface.New(o.surface, opsurface.Options{
		Binary: "magellan-sim", Journal: journal, SelfLog: o.selfLog,
	})
	if err != nil {
		return err
	}
	defer surf.Close() // releases the listener on an error return; the success path closes below
	start := time.Now()
	if o.surface.HTTP != "" {
		// The simulator pushes population and fault gauges into the
		// registry at tick boundaries; wall-clock derived rates live here
		// in the CLI layer, keeping the sim core free of clock reads.
		cfg.Obs = surf.Registry()
		cfg.Obs.GaugeFunc("magellan_sim_wall_seconds",
			"Wall-clock seconds since the run started.",
			func() float64 { return time.Since(start).Seconds() })
	}

	// liveA is assigned after sim.New (it needs the run's ISP database)
	// and strictly before s.Run starts the worker goroutines that submit
	// reports, so the tee closures below observe it race-free.
	var liveA *live.Analyzer
	tracePaths := []string{o.tracePath}
	if o.ingestN > 1 {
		tracePaths = make([]string, o.ingestN)
		for i := range tracePaths {
			tracePaths[i] = fmt.Sprintf("%s.shard%02d", o.tracePath, i+1)
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
		if !o.liveOn {
			return w
		}
		// The tee mirrors the daemon-side Observe hook: the live plane
		// sees exactly the reports the trace file accepted, after it
		// accepted them, so attaching it cannot change the trace bytes.
		return teeSink{inner: w, shard: shard,
			observe: func(shard int, r trace.Report) { liveA.Observe(shard, r) }}
	}
	if o.ingestN > 1 {
		// Emission routes each report to its owning shard's writer; the
		// journal's report-path events carry the shard label.
		cfg.ShardSinks = make([]trace.Sink, len(writers))
		for i, w := range writers {
			cfg.ShardSinks[i] = sinkFor(i, w)
		}
	} else {
		cfg.Sink = sinkFor(0, writers[0])
	}

	if o.verbose {
		cfg.Progress = func(st sim.Stats) {
			// peers/sec-of-virtual-time: peer-seconds of overlay simulated
			// per wall second — the engine-throughput number long runs are
			// watched by.
			pvsRate := st.PeerVirtualSeconds / time.Since(start).Seconds()
			fmt.Fprintf(os.Stderr, "%s online=%d stable=%d joins=%d reports=%d peers/s=%.0f\n",
				st.Now.Format("2006-01-02 15:04"), st.Online, st.Stable, st.Joins, st.Reports, pvsRate)
		}
	}
	s, err := sim.New(cfg)
	if err != nil {
		return err
	}
	if o.liveOn {
		liveA = live.New(live.Config{
			Shards:   o.ingestN,
			DB:       s.Database(),
			Analysis: core.Config{Seed: cfg.Seed},
			Obs:      surf.Registry(),
			NowNanos: func() int64 { return time.Now().UnixNano() },
		})
	}
	surf.Serve(opsurface.Plane{
		Live:   liveA,
		LogMsg: "sim stats",
		LogFields: func() []any {
			return []any{
				"wallSeconds", int(time.Since(start).Seconds()),
				"historySamples", surf.History().Samples(),
			}
		},
	})
	if addr := surf.Addr(); addr != "" {
		out.Printf("metrics on http://%s/metrics\n", addr)
		if o.liveOn {
			out.Printf("live topology observatory on http://%s/live (JSON on /live/epochs)\n", addr)
		}
	}
	if err := s.Run(); err != nil {
		return err
	}
	// The run is over: /healthz turns to draining (503) for the rest of
	// the teardown and any -linger window, exactly like the trace
	// server's drain. Close out every in-flight epoch so the linger
	// window (and any final scrape) sees the complete series.
	surf.Drain()
	liveA.Drain()
	for i, w := range writers {
		if err := w.Flush(); err != nil {
			return err
		}
		if err := traceFiles[i].Close(); err != nil {
			return err
		}
	}

	dbFile, err := os.Create(o.ispdbPath)
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
	traceDest := o.tracePath
	if o.ingestN > 1 {
		traceDest = fmt.Sprintf("%s.shard{01..%02d}", o.tracePath, o.ingestN)
	}
	out.Printf("simulated %v in %v: %d joins, %d reports → %s (+ %s)\n",
		cfg.Duration, time.Since(start).Round(time.Millisecond), st.Joins, st.Reports, traceDest, o.ispdbPath)
	if cfg.Faults.Enabled() {
		out.Printf("faults: %s torn-rejected=%d\n", st.Faults, st.TornReports)
	}
	if st.Flaps > 0 || st.MassDeparted > 0 {
		out.Printf("churn: flaps=%d massdeparted=%d\n", st.Flaps, st.MassDeparted)
	}
	if journal != nil {
		out.Printf("journal: recorded=%d dropped=%d held=%d\n",
			journal.Recorded(), journal.Dropped(), journal.Len())
	}
	if o.journalOut != "" {
		if err := opsurface.WriteJSONL(o.journalOut, journal.WriteJSONL); err != nil {
			return err
		}
		out.Printf("journal events written to %s\n", o.journalOut)
	}
	if o.linger > 0 && surf.Addr() != "" {
		// Give scrapers (and the CI smoke step) a window to read the
		// finished run's endpoints before the process exits.
		out.Printf("lingering %v for telemetry readers\n", o.linger)
		time.Sleep(o.linger)
	}
	if err := surf.Close(); err != nil {
		return err
	}
	if o.surface.HistoryOut != "" {
		out.Printf("metrics history written to %s\n", o.surface.HistoryOut)
	}
	return nil
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
