// Command magellan-serve runs a standalone trace server, the deployment
// piece of the paper's measurement infrastructure: it ingests UDP report
// datagrams from instrumented peers, persists them into rotating binary
// trace files, and exposes an HTTP status endpoint for monitoring.
//
//	magellan-serve -listen :9600 -out traces/ -http 127.0.0.1:9601
//
// Stop with SIGINT/SIGTERM; the current trace file is flushed and
// closed cleanly.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/live"
	"github.com/magellan-p2p/magellan/internal/obs"
	"github.com/magellan-p2p/magellan/internal/obs/buildinfo"
	"github.com/magellan-p2p/magellan/internal/opsurface"
	"github.com/magellan-p2p/magellan/internal/trace"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "magellan-serve:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until stop closes (or a signal
// arrives when stop is nil).
func run(args []string, stop <-chan struct{}) error {
	var cfg daemonConfig
	if err := cfg.flagSet().Parse(args); err != nil {
		return err
	}
	if cfg.version {
		fmt.Println(buildinfo.String("magellan-serve"))
		return nil
	}

	d, err := newDaemon(cfg)
	if err != nil {
		return err
	}
	if d.fleet.Len() > 1 {
		fmt.Printf("trace fleet of %d shards, writing %s, rotating every %v\n",
			d.fleet.Len(), cfg.outDir, cfg.rotate)
		for i, a := range d.fleet.Addrs() {
			fmt.Printf("  shard %d on udp://%s\n", i+1, a)
		}
	} else {
		fmt.Printf("trace server on udp://%s, writing %s, rotating every %v\n",
			d.udp.Addr(), cfg.outDir, cfg.rotate)
	}
	if d.recoveredFiles > 0 {
		fmt.Printf("recovered %d torn trace file(s), truncated %d byte(s)\n",
			d.recoveredFiles, d.truncatedBytes)
	}
	if addr := d.surf.Addr(); addr != "" {
		fmt.Printf("status on http://%s/status, metrics on /metrics, readiness on /healthz\n", addr)
		if cfg.live {
			fmt.Printf("live topology observatory on http://%s/live (JSON on /live/epochs)\n", addr)
		}
	}

	if stop == nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
	} else {
		<-stop
	}
	return d.Close()
}

// rotatingSink writes reports into per-period binary trace files.
type rotatingSink struct {
	mu      sync.Mutex
	dir     string
	period  time.Duration
	file    *os.File
	writer  *trace.Writer
	opened  time.Time
	written uint64
	seq     int
}

var _ trace.Sink = (*rotatingSink)(nil)

func newRotatingSink(dir string, period time.Duration) (*rotatingSink, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &rotatingSink{dir: dir, period: period}
	if err := s.rotateLocked(time.Now()); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *rotatingSink) Submit(r trace.Report) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writer == nil {
		return fmt.Errorf("sink closed")
	}
	if now := time.Now(); now.Sub(s.opened) >= s.period {
		if err := s.rotateLocked(now); err != nil {
			return err
		}
	}
	// s.mu is this writer's serialization: Submit and rotation must
	// exclude each other on the same file-backed Writer, so holding the
	// lock across the write is the design, not an oversight.
	if err := s.writer.Submit(r); err != nil { //magellan:allow lockspan — the lock serializes writer access; file-local Writer, not the shared collector
		return err
	}
	s.written++
	return nil
}

func (s *rotatingSink) rotateLocked(now time.Time) error {
	if err := s.closeCurrentLocked(); err != nil {
		return err
	}
	// The name is timestamp+sequence, but the sequence restarts with the
	// process: after a crash-restart within the same second the obvious
	// name may already exist and hold a predecessor's (just-recovered)
	// reports. O_EXCL makes that a collision to skip past, never a
	// truncation.
	var f *os.File
	for {
		s.seq++
		name := filepath.Join(s.dir,
			fmt.Sprintf("uusee-%s-%04d.trace", now.UTC().Format("20060102T150405"), s.seq))
		var err error
		f, err = os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil {
			break
		}
		if !os.IsExist(err) {
			return err
		}
	}
	w, err := trace.NewWriter(f)
	if err != nil {
		f.Close() //magellan:allow erridle — best-effort cleanup; the NewWriter error wins
		return err
	}
	s.file, s.writer, s.opened = f, w, now
	return nil
}

func (s *rotatingSink) closeCurrentLocked() error {
	if s.writer == nil {
		return nil
	}
	if err := s.writer.Flush(); err != nil {
		return err
	}
	err := s.file.Close()
	s.file, s.writer = nil, nil
	return err
}

func (s *rotatingSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeCurrentLocked()
}

func (s *rotatingSink) CurrentFile() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.file == nil {
		return ""
	}
	return s.file.Name()
}

// Written returns the number of reports persisted across all files.
func (s *rotatingSink) Written() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.written
}

// Rotations returns the number of trace files opened so far.
func (s *rotatingSink) Rotations() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return uint64(s.seq)
}

// daemonConfig holds every flag, bound by flagSet, plus the self-log
// destination tests inject (nil means os.Stderr).
type daemonConfig struct {
	listen, outDir, liveISPDB string
	shards, queue, journal    int
	rotate, selfLog           time.Duration
	pprof, live, version      bool
	surface                   opsurface.Flags
	logSink                   io.Writer
}

// flagSet binds every magellan-serve flag to cfg.
func (cfg *daemonConfig) flagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("magellan-serve", flag.ContinueOnError)
	fs.StringVar(&cfg.listen, "listen", "127.0.0.1:9600", "UDP address for report ingestion (shard K listens on port+K-1; port 0 gives every shard an ephemeral port)")
	fs.StringVar(&cfg.outDir, "out", "traces", "directory for rotated binary trace files (sharded fleets write shard-NN/ subdirectories)")
	fs.IntVar(&cfg.shards, "shards", 1, "ingest fleet size; reports are partitioned by peer address, and magellan-analyze merges the per-shard files deterministically")
	fs.DurationVar(&cfg.rotate, "rotate", time.Hour, "trace-file rotation period")
	fs.IntVar(&cfg.queue, "queue", 0, "ingest queue depth (0: default)")
	fs.IntVar(&cfg.journal, "journal", obs.DefaultJournalCapacity, "flight-recorder ring capacity for /events lifecycle tracing (0: disabled)")
	fs.BoolVar(&cfg.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/ on the HTTP address")
	fs.DurationVar(&cfg.selfLog, "selflog", time.Minute, "period for self-logging queue stats to stderr (0: disabled)")
	fs.BoolVar(&cfg.live, "live", false, "run the live analysis plane: incremental per-epoch topology metrics on /live and /live/epochs")
	fs.StringVar(&cfg.liveISPDB, "live-ispdb", "", "ISP range database for the live plane's intra/inter-ISP splits (empty: all addresses Unknown)")
	fs.BoolVar(&cfg.version, "version", false, "print version and exit")
	cfg.surface.Register(fs)
	return fs
}

// daemon ties the UDP ingest fleet, rotating sinks, and operator surface
// together. udp and sink alias shard 0's members: with -shards 1 (the
// default) they are simply "the server" and "the sink", exactly as
// before the fleet existed.
type daemon struct {
	fleet   *trace.Fleet
	udp     *trace.Server
	sinks   []*rotatingSink
	sink    *rotatingSink
	surf    *opsurface.Surface
	started time.Time

	// live is the streaming analysis plane; nil when -live is off (the
	// /live endpoints still mount — they serve the empty series).
	live *live.Analyzer

	// Startup torn-tail recovery accounting (see recoverTraces).
	recoveredFiles int
	truncatedBytes int64
}

// recoverTraces repairs torn trace files a crashed predecessor left in
// dir, so a restart picks up a directory of uniformly valid traces. Only
// *.trace files are touched; anything else in the directory is not ours.
func recoverTraces(dir string) (files int, bytes int64, err error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.trace"))
	if err != nil {
		return 0, 0, err
	}
	for _, path := range matches {
		res, err := trace.RecoverFile(path)
		if err != nil {
			return files, bytes, fmt.Errorf("recover %s: %w", path, err)
		}
		if res.Recovered {
			files++
			bytes += res.TruncatedBytes
		}
	}
	return files, bytes, nil
}

// shardDirs lays out the fleet's trace directories: the flat historical
// layout for a standalone server, one shard-NN subdirectory per member
// (1-based, matching every other shard label) otherwise.
func shardDirs(outDir string, n int) []string {
	if n <= 1 {
		return []string{outDir}
	}
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(outDir, fmt.Sprintf("shard-%02d", i+1))
	}
	return dirs
}

// shardListenAddrs derives the fleet's listen addresses from the base:
// shard K gets port+K-1, except port 0, which gives every shard its own
// ephemeral port.
func shardListenAddrs(base string, n int) ([]string, error) {
	if n <= 1 {
		return []string{base}, nil
	}
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return nil, fmt.Errorf("listen address %q: %w", base, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("listen address %q: non-numeric port: %w", base, err)
	}
	addrs := make([]string, n)
	for i := range addrs {
		p := 0
		if port != 0 {
			p = port + i
		}
		addrs[i] = net.JoinHostPort(host, strconv.Itoa(p))
	}
	return addrs, nil
}

// newDaemon builds the operator surface first, so a bad -http fails
// before recovery or a sink touches a trace file; then the ingest data
// plane on the surface's registry; then it starts serving.
func newDaemon(cfg daemonConfig) (_ *daemon, err error) {
	if cfg.rotate <= 0 {
		return nil, fmt.Errorf("-rotate must be positive, got %v", cfg.rotate)
	}
	// The daemon's flight recorder stamps wall-clock instants (the
	// simulator's is tick-stamped). One ring serves the whole fleet; every
	// member's events carry its shard label.
	var journal *obs.Journal
	if cfg.journal > 0 {
		journal = obs.NewWallJournal(cfg.journal)
	}
	surf, err := opsurface.New(cfg.surface, opsurface.Options{
		Binary: "magellan-serve", Journal: journal,
		Pprof: cfg.pprof, SelfLog: cfg.selfLog, LogSink: cfg.logSink,
	})
	if err != nil {
		return nil, err
	}
	var sinks []*rotatingSink
	defer func() { // a construction error releases what was built so far
		if err != nil {
			for _, s := range sinks {
				err = errors.Join(err, s.Close())
			}
			err = errors.Join(err, surf.Close())
		}
	}()
	n := cfg.shards
	if n <= 0 {
		n = 1
	}
	dirs := shardDirs(cfg.outDir, n)
	var recovered int
	var truncated int64
	for _, dir := range dirs {
		files, bytes, err := recoverTraces(dir)
		if err != nil {
			return nil, err
		}
		recovered += files
		truncated += bytes
	}
	addrs, err := shardListenAddrs(cfg.listen, n)
	if err != nil {
		return nil, err
	}
	reg := surf.Registry()
	var liveA *live.Analyzer
	if cfg.live {
		db, err := loadISPDB(cfg.liveISPDB)
		if err != nil {
			return nil, err
		}
		liveA = live.New(live.Config{
			Shards:   n,
			DB:       db,
			Obs:      reg,
			NowNanos: func() int64 { return time.Now().UnixNano() },
		})
	}
	fcfg := trace.FleetConfig{QueueDepth: cfg.queue, Obs: reg, Journal: journal}
	if liveA != nil {
		fcfg.Observe = liveA.Observe
	}
	// The fleet binds every -listen socket before it asks for the first
	// sink, so a busy port fails the start before any trace file exists.
	fleet, err := trace.NewFleet(addrs, func(i int) (trace.Sink, error) {
		s, err := newRotatingSink(dirs[i], cfg.rotate)
		if err != nil {
			return nil, err
		}
		sinks = append(sinks, s)
		return s, nil
	}, fcfg)
	if err != nil {
		return nil, err
	}
	d := &daemon{
		fleet: fleet, udp: fleet.Server(0),
		sinks: sinks, sink: sinks[0], surf: surf,
		started:        time.Now(),
		live:           liveA,
		recoveredFiles: recovered, truncatedBytes: truncated,
	}
	reg.GaugeFunc("magellan_serve_uptime_seconds",
		"Seconds since the daemon started.",
		func() float64 { return time.Since(d.started).Seconds() })
	reg.GaugeFunc("magellan_serve_recovered_files",
		"Torn trace files repaired at startup.",
		func() float64 { return float64(d.recoveredFiles) })
	reg.GaugeFunc("magellan_serve_truncated_bytes",
		"Bytes truncated from torn trace files at startup.",
		func() float64 { return float64(d.truncatedBytes) })
	reg.ShardCounterFunc("magellan_sink_reports_written_total",
		"Reports persisted across all trace files.", n,
		func(i int) uint64 { return sinks[i].Written() })
	reg.ShardCounterFunc("magellan_sink_rotations_total",
		"Trace files opened (startup plus rotations).", n,
		func(i int) uint64 { return sinks[i].Rotations() })
	surf.Serve(opsurface.Plane{
		Live: liveA,
		Routes: func(mux *http.ServeMux) {
			mux.Handle("/status", obs.JSONHandler(d.statusPayload))
		},
		LogMsg:    "ingest stats",
		LogFields: d.selfLogFields,
	})
	return d, nil
}

// loadISPDB reads an ISP range database from path; an empty path gives
// nil, which live.New treats as the empty database (every address
// resolves Unknown), so the live plane degrades rather than refusing to
// start.
func loadISPDB(path string) (*isp.Database, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ispdb: %w", err)
	}
	defer f.Close()
	db, err := isp.ReadDatabase(f)
	if err != nil {
		return nil, fmt.Errorf("ispdb %s: %w", path, err)
	}
	return db, nil
}

// selfLogFields is one self-log record of the ingest accounting, so an
// operator with only the daemon's stderr still sees queue pressure
// developing.
func (d *daemon) selfLogFields() []any {
	st := d.fleet.TotalStats()
	var written uint64
	for _, s := range d.sinks {
		written += s.Written()
	}
	return []any{
		"shards", d.fleet.Len(),
		"received", st.Received,
		"rejected", st.Rejected,
		"queueDrops", st.QueueDrops,
		"sinkErrors", st.SinkErrors,
		"written", written,
		"currentFile", d.sink.CurrentFile(),
	}
}

// statusPayload assembles the /status body; the HTTP discipline (method
// guard, Content-Type, encoding) lives in obs.JSONHandler. The
// top-level counters are fleet-wide totals (identical to the historical
// body for a standalone server); a sharded daemon adds a "shards" array
// with each member's breakdown.
func (d *daemon) statusPayload() any {
	st := d.fleet.TotalStats()
	payload := map[string]any{
		"received":       st.Received,
		"dropped":        st.Dropped(),
		"rejected":       st.Rejected,
		"queueDrops":     st.QueueDrops,
		"sinkErrors":     st.SinkErrors,
		"recoveredFiles": d.recoveredFiles,
		"truncatedBytes": d.truncatedBytes,
		"currentFile":    d.sink.CurrentFile(),
		"uptimeSeconds":  int(time.Since(d.started).Seconds()),
	}
	if d.fleet.Len() > 1 {
		shards := make([]map[string]any, d.fleet.Len())
		for i := range shards {
			sst := d.fleet.Server(i).Stats()
			shards[i] = map[string]any{
				"shard":      i + 1,
				"addr":       d.fleet.Server(i).Addr().String(),
				"received":   sst.Received,
				"rejected":   sst.Rejected,
				"queueDrops": sst.QueueDrops,
				"sinkErrors": sst.SinkErrors,
				"written":    d.sinks[i].Written(),
			}
		}
		payload["shards"] = shards
	}
	return payload
}

// Close drains the surface first, so probes see 503 while the fleet and
// sinks wind down, then stops ingest, drains the live plane, closes the
// sinks, and closes the surface last.
func (d *daemon) Close() error {
	d.surf.Drain()
	err := d.fleet.Close()
	// The fleet is closed, so no more Observe calls race the drain;
	// every epoch still in flight finalizes before the final history
	// sample and before the HTTP server (and its last /live/epochs
	// scrape) goes away.
	d.live.Drain()
	for _, s := range d.sinks {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := d.surf.Close(); err == nil {
		err = cerr
	}
	return err
}
