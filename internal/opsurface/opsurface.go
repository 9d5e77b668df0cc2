// Package opsurface is the operator surface both long-running daemons,
// magellan-serve and magellan-sim -http, share: the surface flags, the
// registry, the metrics history and default alert rule pack, one HTTP
// mux, the sampler and self-log loops, readiness, and the drain order.
// A daemon calls New, which binds -http before the daemon touches any
// output file; builds its data plane on Registry; calls Serve; and at
// shutdown calls Drain, stops its data plane, then calls Close. The
// surface reads the wall clock, so it stays outside the determinism
// analyzer's restricted packages.
package opsurface

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/magellan-p2p/magellan/internal/alert"
	"github.com/magellan-p2p/magellan/internal/live"
	"github.com/magellan-p2p/magellan/internal/obs"
	"github.com/magellan-p2p/magellan/internal/obs/buildinfo"
	"github.com/magellan-p2p/magellan/internal/tsdb"
)

// Flags are the surface's command-line flags, one default and one help
// text for every daemon.
type Flags struct {
	HTTP       string        // listen address; "" disables HTTP
	History    time.Duration // sampling cadence; 0 disables
	HistoryCap int           // samples retained per series
	HistoryOut string        // JSONL file Close writes; "" disables
	Alerts     bool          // evaluate the default rule pack each sample
}

// Register binds the surface flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.HTTP, "http", "", "HTTP operator-surface address for /metrics, /healthz, /events, /live, /history and /alerts (empty: disabled)")
	fs.DurationVar(&f.History, "history", 0, "metrics-history sampling cadence for /history (0: disabled)")
	fs.IntVar(&f.HistoryCap, "history-cap", tsdb.DefaultCapacity, "metrics-history samples retained per series")
	fs.StringVar(&f.HistoryOut, "history-out", "", "write the retained metrics history as JSON lines to this file on shutdown (requires -history)")
	fs.BoolVar(&f.Alerts, "alerts", false, "evaluate the default alert rule pack each history sample and serve /alerts (requires -history)")
}

// Options are the daemon-owned inputs.
type Options struct {
	Binary  string        // labels magellan_build_info and the /healthz version
	Journal *obs.Journal  // backs /events and the journal metrics; may be nil
	Pprof   bool          // mount /debug/pprof/
	SelfLog time.Duration // self-log period; 0 disables
	LogSink io.Writer     // self-log destination; nil means os.Stderr
}

// Plane is what the daemon's data plane hands Serve.
type Plane struct {
	Live      *live.Analyzer           // backs /live and /live/epochs; nil serves the empty series
	Routes    func(mux *http.ServeMux) // mounts the daemon's own endpoints; may be nil
	LogMsg    string                   // self-log message
	LogFields func() []any             // self-log fields, required with SelfLog; the surface appends the alert counts
}

// Surface is one daemon's operator surface, driven from the daemon's
// controlling goroutine in lifecycle order.
type Surface struct {
	flags  Flags
	opts   Options
	reg    *obs.Registry
	hist   *tsdb.DB      // nil without -history
	alerts *alert.Engine // nil without -alerts
	ln     net.Listener  // nil without -http
	addr   string        // ln's address; "" without -http
	srv    *http.Server  // set by Serve when ln is bound
	ready  atomic.Bool   // gates /healthz: true from Serve until Drain

	stop           chan struct{} // closed by Drain
	drain          sync.Once
	loops          sync.WaitGroup
	httpDone       chan struct{} // closed when the HTTP server goroutine exits
	served, closed bool
}

// New validates the flags, builds the registry, history and alert
// engine, and binds the HTTP listener.
func New(f Flags, o Options) (*Surface, error) {
	if f.Alerts && f.History <= 0 {
		return nil, fmt.Errorf("-alerts requires -history (the rule pack evaluates against the sampled history)")
	}
	if f.HistoryOut != "" && f.History <= 0 {
		return nil, fmt.Errorf("-history-out requires -history")
	}
	s := &Surface{flags: f, opts: o, reg: obs.NewRegistry(), stop: make(chan struct{})}
	buildinfo.Register(s.reg, o.Binary)
	obs.RegisterProcessMetrics(s.reg)
	if o.Journal != nil {
		obs.RegisterJournalMetrics(s.reg, o.Journal)
	}
	if f.History > 0 {
		s.hist = tsdb.New(s.reg, tsdb.Config{Capacity: f.HistoryCap, Now: wallNanos})
		if f.Alerts {
			eng, err := alert.New(s.hist, alert.DefaultRules(), alert.Config{Now: wallNanos})
			if err != nil {
				return nil, err
			}
			s.alerts = eng
		}
	}
	// Registered with the engine off too (reading zero).
	alert.RegisterMetrics(s.reg, s.alerts)
	if f.HTTP != "" {
		ln, err := net.Listen("tcp", f.HTTP)
		if err != nil {
			return nil, fmt.Errorf("-http: %w", err)
		}
		s.ln, s.addr = ln, ln.Addr().String()
	}
	return s, nil
}

func wallNanos() int64 { return time.Now().UnixNano() }

// Registry is what the data plane registers on and /metrics serves.
func (s *Surface) Registry() *obs.Registry { return s.reg }

// History is the metrics history; nil without -history.
func (s *Surface) History() *tsdb.DB { return s.hist }

// Addr is the bound HTTP address; "" without -http.
func (s *Surface) Addr() string { return s.addr }

// Serve mounts every route, starts serving, starts the sampler and
// self-log loops, and turns readiness on.
func (s *Surface) Serve(p Plane) {
	s.served = true
	if s.ln != nil {
		// Every handler is nil-safe, so a disabled plane serves its empty
		// payload, never a 404; all share obs's GET-only guard.
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(s.reg))
		mux.Handle("/events", obs.EventsHandler(s.opts.Journal))
		mux.Handle("/healthz", obs.HealthzHandler(buildinfo.String(s.opts.Binary), s.ready.Load))
		mux.Handle("/live", live.DashboardHandler(p.Live, s.hist, s.alerts))
		mux.Handle("/live/epochs", live.EpochsHandler(p.Live))
		mux.Handle("/history", tsdb.Handler(s.hist))
		mux.Handle("/alerts", alert.Handler(s.alerts))
		if s.opts.Pprof {
			mux.Handle("/debug/pprof/", http.DefaultServeMux)
		}
		if p.Routes != nil {
			p.Routes(mux)
		}
		srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		s.srv, s.httpDone = srv, make(chan struct{})
		go func() {
			defer close(s.httpDone)
			// Any error but Close's means the endpoint died; the data plane
			// carries on.
			if err := srv.Serve(s.ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "%s: HTTP endpoint: %v\n", s.opts.Binary, err)
			}
		}()
	}
	if s.flags.History > 0 {
		s.every(s.flags.History, s.sample)
	}
	if s.opts.SelfLog > 0 {
		sink := s.opts.LogSink
		if sink == nil {
			sink = os.Stderr
		}
		logger := obs.NewLogger(sink, obs.LevelInfo)
		s.every(s.opts.SelfLog, func() {
			firing, pending := s.alerts.Counts()
			logger.Info(p.LogMsg, append(p.LogFields(), "alertsFiring", firing, "alertsPending", pending)...)
		})
	}
	s.ready.Store(true)
}

// sample records one history sample and alert evaluation (nil-safe).
func (s *Surface) sample() {
	s.hist.Sample()
	s.alerts.Eval()
}

// every runs f once per period on its own goroutine until Drain.
func (s *Surface) every(period time.Duration, f func()) {
	s.loops.Add(1)
	go func() {
		defer s.loops.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				f()
			}
		}
	}()
}

// Drain turns /healthz to 503 "draining" and stops both loops. It is
// idempotent.
func (s *Surface) Drain() {
	s.ready.Store(false)
	s.drain.Do(func() {
		close(s.stop)
		s.loops.Wait()
	})
}

// Close drains; then, if Serve ran, it takes one final sample and alert
// evaluation, so the snapshot ends with the drained state, and writes
// -history-out. It closes the HTTP server last and returns once its
// goroutine has exited. A surface that never served only releases its
// listener. A second Close is a no-op.
func (s *Surface) Close() error {
	s.Drain()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.served && s.flags.HistoryOut != "" {
		s.sample()
		err = WriteJSONL(s.flags.HistoryOut, s.hist.WriteJSONL)
	}
	if s.srv != nil {
		err = errors.Join(err, s.srv.Close())
		<-s.httpDone
		return err
	}
	if s.ln != nil {
		return errors.Join(err, s.ln.Close())
	}
	return err
}

// WriteJSONL creates path and writes one JSONL snapshot into it: the
// history's for -history-out (magellan-report -health reads it back),
// or a daemon's journal.
func WriteJSONL(path string, write func(io.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	return write(f)
}
