package trace

import (
	"errors"
	"fmt"
	"net"

	"github.com/magellan-p2p/magellan/internal/obs"
)

// FleetConfig tunes every member of a Fleet uniformly.
type FleetConfig struct {
	// QueueDepth is each shard server's ingest queue bound; 0 means
	// DefaultQueueDepth.
	QueueDepth int
	// Obs, when non-nil, receives the fleet's ingest metrics: the
	// magellan_ingest_* families, through obs.Registry's shard helpers
	// (unlabeled for a single-member fleet, so a daemon with -shards 1
	// exposes exactly what the unsharded daemon always has; one
	// shard="K" sample per member otherwise, K 1-based like the journal's
	// shard labels), and one magellan_sink_submit_duration_seconds
	// histogram pooling every member's sink submits. Telemetry is
	// measurement-only: enabling it changes no ingest behavior.
	Obs *obs.Registry
	// Journal, when non-nil, records every member's server-plane
	// lifecycle events, labeled with the member's 1-based shard (a
	// single-member fleet records unlabeled events).
	Journal *obs.Journal
	// Observe, when non-nil, receives every report any member's sink
	// accepted, with the member's 0-based shard index — the hook the
	// live analysis plane subscribes through. Calls arrive concurrently
	// from each member's ingest goroutine; the observer synchronizes.
	// Measurement-only: observers see reports, they cannot influence
	// ingestion. A slow observer stalls its member's ingest worker (the
	// bounded queue absorbs the stall and sheds with accounting), so it
	// should be quick or shed internally.
	Observe func(shard int, r Report)
}

// Fleet is a hash-sharded tier of trace servers: member K owns exactly
// the addresses ShardOf maps to K, so clients (ShardedClient, Balancer)
// route each report to the one server that will ever see that peer.
type Fleet struct {
	servers []*Server
}

// NewFleet starts one server per listen address, in shard order; it is
// the only way to start a trace server. Every address is bound before
// the first sink is built, so a busy port fails the fleet before any
// sink creates a file, and every sink is built (sinkFor is called with
// K ascending from 0) before the first member starts, so a failing sink
// fails the fleet before any datagram is read. On failure every socket
// is closed and the error returned.
func NewFleet(addrs []string, sinkFor func(shard int) (Sink, error), cfg FleetConfig) (_ *Fleet, err error) {
	n := len(addrs)
	if n == 0 {
		return nil, errors.New("trace: fleet needs at least one listen address")
	}
	conns := make([]*net.UDPConn, 0, n)
	defer func() {
		if err != nil {
			for _, c := range conns {
				c.Close() //magellan:allow erridle — best-effort cleanup; the listen or sink error wins
			}
		}
	}()
	for i, addr := range addrs {
		conn, err := listenUDP(addr)
		if err != nil {
			return nil, fmt.Errorf("trace fleet: shard %d: %w", i, err)
		}
		conns = append(conns, conn)
	}
	sinks := make([]Sink, n)
	for i := range sinks {
		if sinks[i], err = sinkFor(i); err != nil {
			return nil, fmt.Errorf("trace fleet: shard %d sink: %w", i, err)
		}
	}
	m := member{queueDepth: cfg.QueueDepth, journal: cfg.Journal}
	if m.queueDepth <= 0 {
		m.queueDepth = DefaultQueueDepth
	}
	if cfg.Obs != nil {
		// One histogram pools every member's submits: per-shard latency
		// families would multiply bucket series without changing any
		// decision the dashboards make.
		m.latency = cfg.Obs.Histogram("magellan_sink_submit_duration_seconds",
			"Wall time of each sink submit, successful or not.",
			obs.DefLatencyBuckets())
	}
	f := &Fleet{servers: make([]*Server, n)}
	for i, conn := range conns {
		mi := m
		if n > 1 {
			mi.shard = int32(i + 1)
		}
		if cfg.Observe != nil {
			mi.observe = func(r Report) { cfg.Observe(i, r) }
		}
		f.servers[i] = serve(conn, sinks[i], mi)
	}
	if cfg.Obs != nil {
		f.registerMetrics(cfg.Obs, m.queueDepth)
	}
	return f, nil
}

// registerMetrics exposes every member's ingest accounting. The samples
// read the same atomics Stats reads, so scraping never perturbs
// ingestion.
func (f *Fleet) registerMetrics(reg *obs.Registry, depth int) {
	n, srv := len(f.servers), f.servers
	reg.ShardCounterFunc("magellan_ingest_received_total",
		"Reports decoded, validated, and accepted by the sink.", n,
		func(i int) uint64 { return srv[i].received.Load() })
	reg.ShardCounterFunc("magellan_ingest_rejected_total",
		"Datagrams dropped for failing decode or validation.", n,
		func(i int) uint64 { return srv[i].rejected.Load() })
	reg.ShardCounterFunc("magellan_ingest_queue_drops_total",
		"Datagrams shed because the ingest queue was full.", n,
		func(i int) uint64 { return srv[i].queueDrops.Load() })
	reg.ShardCounterFunc("magellan_ingest_sink_errors_total",
		"Well-formed reports the sink refused.", n,
		func(i int) uint64 { return srv[i].sinkErrors.Load() })
	reg.ShardGaugeFunc("magellan_ingest_queue_depth",
		"Datagrams currently waiting in the ingest queue.", n,
		func(i int) float64 { return float64(srv[i].QueueLen()) })
	reg.ShardGaugeFunc("magellan_ingest_queue_capacity",
		"Bound of the ingest queue.", n,
		func(int) float64 { return float64(depth) })
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
