package trace

import (
	"errors"
	"fmt"
	"net"
	"strconv"

	"github.com/magellan-p2p/magellan/internal/obs"
)

// FleetConfig tunes every member of a Fleet uniformly.
type FleetConfig struct {
	// QueueDepth is each shard server's ingest queue bound; 0 means
	// DefaultQueueDepth.
	QueueDepth int
	// Obs, when non-nil, receives the fleet's ingest metrics. A
	// single-member fleet registers the historical unlabeled
	// magellan_ingest_* names, so a daemon with -shards 1 exposes
	// exactly what the unsharded daemon always has; a larger fleet
	// registers the same family names with a shard="K" label (1-based,
	// matching journal shard labels) carrying one sample per member.
	Obs *obs.Registry
	// Journal, when non-nil, records every member's server-plane
	// lifecycle events, labeled with the member's 1-based shard (a
	// single-member fleet records unlabeled events, matching a
	// standalone server).
	Journal *obs.Journal
	// Observe, when non-nil, receives every report any member's sink
	// accepted, with the member's 0-based shard index — the hook the
	// live analysis plane subscribes through. Calls arrive concurrently
	// from each member's ingest goroutine; the observer synchronizes.
	// Measurement-only: observers see reports, they cannot influence
	// ingestion.
	Observe func(shard int, r Report)
}

// Fleet is a hash-sharded tier of trace servers: member K owns exactly
// the addresses ShardOf maps to K, so clients (ShardedClient, Balancer)
// route each report to the one server that will ever see that peer.
type Fleet struct {
	servers []*Server
}

// NewFleet starts one server per listen address, in shard order. Every
// address is bound before the first sink is built, so a busy port fails
// the fleet before any sink creates a file. sinkFor builds shard K's
// sink (called with K ascending from 0); on any failure every socket and
// already-started member is closed and the error returned.
func NewFleet(addrs []string, sinkFor func(shard int) (Sink, error), cfg FleetConfig) (_ *Fleet, err error) {
	n := len(addrs)
	if n == 0 {
		return nil, errors.New("trace: fleet needs at least one listen address")
	}
	conns := make([]*net.UDPConn, 0, n)
	f := &Fleet{}
	defer func() {
		if err != nil {
			for _, c := range conns[len(f.servers):] {
				c.Close() //magellan:allow erridle — best-effort cleanup; the listen or sink error wins
			}
			f.Close() //magellan:allow erridle — best-effort cleanup; the listen or sink error wins
		}
	}()
	for i, addr := range addrs {
		conn, err := listenUDP(addr)
		if err != nil {
			return nil, fmt.Errorf("trace fleet: shard %d: %w", i, err)
		}
		conns = append(conns, conn)
	}
	// Sink-submit latency is pooled into one fleet-wide histogram:
	// per-shard latency families would multiply bucket series without
	// changing any decision the dashboards make. It must exist before
	// the first member starts — the ingest goroutine reads the field
	// unsynchronized, by design.
	var latency *obs.Histogram
	if n > 1 && cfg.Obs != nil {
		latency = cfg.Obs.Histogram("magellan_sink_submit_duration_seconds",
			"Wall time of each sink submit across the fleet, successful or not.",
			obs.DefLatencyBuckets())
	}
	for i, conn := range conns {
		sink, err := sinkFor(i)
		if err != nil {
			return nil, fmt.Errorf("trace fleet: shard %d sink: %w", i, err)
		}
		scfg := ServerConfig{
			QueueDepth: cfg.QueueDepth,
			Journal:    cfg.Journal,
		}
		if cfg.Observe != nil {
			shard := i
			scfg.Observe = func(r Report) { cfg.Observe(shard, r) }
		}
		if n == 1 {
			// A one-member fleet is the standalone server: unlabeled
			// metrics, unlabeled journal events.
			scfg.Obs = cfg.Obs
		} else {
			scfg.Shard = int32(i + 1)
			scfg.SinkLatency = latency
		}
		f.servers = append(f.servers, serve(conn, sink, scfg))
	}
	if n > 1 && cfg.Obs != nil {
		registerFleetMetrics(cfg.Obs, f)
	}
	return f, nil
}

// registerFleetMetrics exposes the same ingest accounting a standalone
// server registers, as one labeled family per metric with a shard="K"
// sample per member (K 1-based, fixed order — exposition stays
// deterministic). The samples read the same atomics Stats reads, so
// scraping never perturbs ingestion. (The pooled sink-latency histogram
// is wired in NewFleet, before any member's ingest goroutine exists.)
func registerFleetMetrics(reg *obs.Registry, f *Fleet) {
	labels := make([]string, len(f.servers))
	for i := range f.servers {
		labels[i] = strconv.Itoa(i + 1)
	}
	series := func(sample func(s *Server) float64) func() []obs.SeriesSample {
		return func() []obs.SeriesSample {
			out := make([]obs.SeriesSample, len(f.servers))
			for i, s := range f.servers {
				out[i] = obs.SeriesSample{Label: labels[i], Value: sample(s)}
			}
			return out
		}
	}
	reg.CounterSeriesFunc("magellan_ingest_received_total",
		"Reports decoded, validated, and accepted by the shard's sink.", "shard",
		series(func(s *Server) float64 { return float64(s.received.Load()) }))
	reg.CounterSeriesFunc("magellan_ingest_rejected_total",
		"Datagrams dropped for failing decode or validation.", "shard",
		series(func(s *Server) float64 { return float64(s.rejected.Load()) }))
	reg.CounterSeriesFunc("magellan_ingest_queue_drops_total",
		"Datagrams shed because the shard's ingest queue was full.", "shard",
		series(func(s *Server) float64 { return float64(s.queueDrops.Load()) }))
	reg.CounterSeriesFunc("magellan_ingest_sink_errors_total",
		"Well-formed reports the shard's sink refused.", "shard",
		series(func(s *Server) float64 { return float64(s.sinkErrors.Load()) }))
	reg.GaugeSeriesFunc("magellan_ingest_queue_depth",
		"Datagrams currently waiting in the shard's ingest queue.", "shard",
		series(func(s *Server) float64 { return float64(s.QueueLen()) }))
	reg.GaugeSeriesFunc("magellan_ingest_queue_capacity",
		"Bound of the shard's ingest queue.", "shard",
		series(func(s *Server) float64 { return float64(s.QueueCap()) }))
}

// Len returns the fleet size.
func (f *Fleet) Len() int { return len(f.servers) }

// Server returns shard i's member.
func (f *Fleet) Server(i int) *Server { return f.servers[i] }

// Addrs returns every member's bound UDP address in shard order — what
// a ShardedClient dials.
func (f *Fleet) Addrs() []string {
	out := make([]string, len(f.servers))
	for i, s := range f.servers {
		out[i] = s.Addr().String()
	}
	return out
}

// Stats returns each member's per-outcome accounting, in shard order.
func (f *Fleet) Stats() []ServerStats {
	out := make([]ServerStats, len(f.servers))
	for i, s := range f.servers {
		out[i] = s.Stats()
	}
	return out
}

// TotalStats folds the members' accounting into one fleet-wide tally —
// the figure a fleet-wide journal conservation check reconciles against.
func (f *Fleet) TotalStats() ServerStats {
	var t ServerStats
	for _, s := range f.servers {
		st := s.Stats()
		t.Received += st.Received
		t.Rejected += st.Rejected
		t.QueueDrops += st.QueueDrops
		t.SinkErrors += st.SinkErrors
	}
	return t
}

// Close stops every member; the first error wins but all are closed.
func (f *Fleet) Close() error {
	var firstErr error
	for _, s := range f.servers {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// FleetAddrs builds n listen addresses on the given host with ephemeral
// ports ("host:0") — the common way tests and the daemon spin up a
// fleet without port coordination.
func FleetAddrs(host string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = host + ":0"
	}
	return out
}
