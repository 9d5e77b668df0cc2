package trace

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"

	"github.com/magellan-p2p/magellan/internal/obs"
)

// DefaultQueueDepth bounds the ingest queue between the UDP receive loop
// and the sink worker. At the paper's scale (~100,000 peers on a
// 10-minute cadence) report bursts are synchronized; the queue absorbs
// them, and overflow is shed with accounting rather than backpressure —
// a UDP measurement plane has nobody to push back on.
const DefaultQueueDepth = 4096

// ServerConfig tunes a Server beyond its defaults.
type ServerConfig struct {
	// QueueDepth is the ingest queue bound; 0 means DefaultQueueDepth.
	QueueDepth int
	// Obs, when non-nil, receives the server's ingest metrics
	// (magellan_ingest_*) and a sink-submit latency histogram.
	// Telemetry is measurement-only: enabling it changes no ingest
	// behavior, only what is observable about it.
	Obs *obs.Registry
	// Journal, when non-nil, records server-plane lifecycle events:
	// received/persisted for accepted datagrams, rejected for
	// decode/validation failures, queue_drop for sheds, sink_error for
	// refused reports. The daemon passes an obs.NewWallJournal; events
	// for datagrams that never decoded (sheds, rejects) carry what is
	// known — an empty ID — rather than inventing one.
	Journal *obs.Journal
	// Shard is the 1-based shard label journal events carry when the
	// server is one member of a sharded ingest fleet; 0 (the default)
	// records unlabeled events, exactly as a standalone server always
	// has.
	Shard int32
	// SinkLatency, when non-nil, observes the wall time of every sink
	// submit. A fleet passes one shared histogram to all members so
	// submit latency pools fleet-wide; it must be set here — before the
	// ingest goroutine starts — never assigned after construction. When
	// Obs is also set, the registry's own histogram wins.
	SinkLatency *obs.Histogram
	// Observe, when non-nil, receives every report the sink accepted,
	// after the successful submit and from the ingest goroutine — the
	// subscription hook the live analysis plane attaches to. Like
	// SinkLatency it must be set before construction, and like every
	// other observer it is measurement-only: it sees reports, it cannot
	// reject or reorder them. A slow Observe stalls the ingest worker
	// (the bounded queue absorbs the stall and sheds with accounting),
	// so implementations should be quick or shed internally.
	Observe func(r Report)
}

// ServerStats breaks the server's datagram accounting down by outcome.
type ServerStats struct {
	// Received counts reports decoded, validated, and accepted by the
	// sink.
	Received uint64
	// Rejected counts datagrams that failed to decode or validate —
	// torn, corrupt, or malformed input.
	Rejected uint64
	// QueueDrops counts datagrams shed because the ingest queue was
	// full.
	QueueDrops uint64
	// SinkErrors counts well-formed reports the sink refused.
	SinkErrors uint64
}

// Dropped is the total number of datagrams that did not reach the sink.
func (st ServerStats) Dropped() uint64 {
	return st.Rejected + st.QueueDrops + st.SinkErrors
}

// Server is the standalone trace server of Sec. 3.2: it receives one
// binary-encoded report per UDP datagram and submits it to a sink.
// Ingestion is two-stage — the receive loop copies datagrams into a
// bounded queue and a worker decodes, validates, and submits — so a slow
// sink costs queue drops (counted) instead of kernel-level receive-buffer
// losses (invisible). Datagrams that fail to decode or validate are
// counted and dropped: a measurement pipeline must survive malformed
// input.
type Server struct {
	conn *net.UDPConn
	sink Sink

	queue chan []byte
	pool  sync.Pool

	received   atomic.Uint64
	rejected   atomic.Uint64
	queueDrops atomic.Uint64
	sinkErrors atomic.Uint64

	// sinkLatency, when non-nil, observes the wall time of each sink
	// submit. nil means telemetry is disabled and the ingest loop reads
	// no clock at all.
	sinkLatency *obs.Histogram

	// journal, when non-nil, records per-datagram lifecycle events
	// (nil-safe: the disabled recorder costs nothing on the hot path).
	// shard is the 1-based fleet label those events carry; 0 unsharded.
	journal *obs.Journal
	shard   int32

	// observe, when non-nil, is called with every accepted report after
	// the sink submit succeeds (see ServerConfig.Observe).
	observe func(r Report)

	recvWG sync.WaitGroup
	workWG sync.WaitGroup
	once   sync.Once
}

// NewServer binds a UDP socket on addr (e.g. "127.0.0.1:0") and starts
// the receive loop with default settings. Close must be called to release
// the socket.
func NewServer(addr string, sink Sink) (*Server, error) {
	return NewServerWithConfig(addr, sink, ServerConfig{})
}

// NewServerWithConfig is NewServer with explicit tuning.
func NewServerWithConfig(addr string, sink Sink, cfg ServerConfig) (*Server, error) {
	conn, err := listenUDP(addr)
	if err != nil {
		return nil, err
	}
	return serve(conn, sink, cfg), nil
}

// listenUDP binds a trace server's socket.
func listenUDP(addr string) (*net.UDPConn, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("trace server: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("trace server: listen: %w", err)
	}
	// A trace server absorbs synchronized report bursts (clients share
	// the 10-minute cadence); a deep receive buffer is what keeps the
	// kernel from shedding them. Best effort: some platforms clamp or
	// refuse it, which is worth knowing about but not fatal.
	if err := conn.SetReadBuffer(4 << 20); err != nil {
		log.Printf("trace server: set read buffer: %v", err)
	}
	return conn, nil
}

// serve starts the receive and ingest loops on a bound socket.
func serve(conn *net.UDPConn, sink Sink, cfg ServerConfig) *Server {
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	s := &Server{
		conn:  conn,
		sink:  sink,
		queue: make(chan []byte, depth),
		pool: sync.Pool{New: func() any {
			buf := make([]byte, 0, 64*1024)
			return &buf
		}},
	}
	s.journal = cfg.Journal
	s.shard = cfg.Shard
	s.sinkLatency = cfg.SinkLatency
	s.observe = cfg.Observe
	if cfg.Obs != nil {
		registerIngestMetrics(cfg.Obs, s, depth)
	}
	s.recvWG.Add(1)
	go s.recvLoop()
	s.workWG.Add(1)
	go s.ingestLoop()
	return s
}

// registerIngestMetrics exposes the server's accounting. The counters
// sample the same atomics Stats reads, so scraping is lock-free and
// never perturbs ingestion.
func registerIngestMetrics(reg *obs.Registry, s *Server, depth int) {
	reg.CounterFunc("magellan_ingest_received_total",
		"Reports decoded, validated, and accepted by the sink.",
		s.received.Load)
	reg.CounterFunc("magellan_ingest_rejected_total",
		"Datagrams dropped for failing decode or validation.",
		s.rejected.Load)
	reg.CounterFunc("magellan_ingest_queue_drops_total",
		"Datagrams shed because the ingest queue was full.",
		s.queueDrops.Load)
	reg.CounterFunc("magellan_ingest_sink_errors_total",
		"Well-formed reports the sink refused.",
		s.sinkErrors.Load)
	reg.GaugeFunc("magellan_ingest_queue_depth",
		"Datagrams currently waiting in the ingest queue.",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("magellan_ingest_queue_capacity",
		"Bound of the ingest queue.",
		func() float64 { return float64(depth) })
	s.sinkLatency = reg.Histogram("magellan_sink_submit_duration_seconds",
		"Wall time of each sink submit, successful or not.",
		obs.DefLatencyBuckets())
}

// Addr returns the bound address, useful when listening on port 0.
func (s *Server) Addr() net.Addr { return s.conn.LocalAddr() }

// Received returns the number of successfully ingested reports.
func (s *Server) Received() uint64 { return s.received.Load() }

// Dropped returns the number of datagrams that did not reach the sink
// (decode/validation failures, queue sheds, or sink errors).
func (s *Server) Dropped() uint64 { return s.Stats().Dropped() }

// Stats returns the full per-outcome accounting.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Received:   s.received.Load(),
		Rejected:   s.rejected.Load(),
		QueueDrops: s.queueDrops.Load(),
		SinkErrors: s.sinkErrors.Load(),
	}
}

// QueueLen returns the number of datagrams currently waiting in the
// ingest queue (a point-in-time read; safe from any goroutine).
func (s *Server) QueueLen() int { return len(s.queue) }

// QueueCap returns the ingest queue bound.
func (s *Server) QueueCap() int { return cap(s.queue) }

// Close stops the receive loop, drains the ingest queue, and releases the
// socket. It is safe to call multiple times.
func (s *Server) Close() error {
	var err error
	s.once.Do(func() {
		err = s.conn.Close()
		s.recvWG.Wait()
		close(s.queue)
		s.workWG.Wait()
	})
	return err
}

// recvLoop copies each datagram into a pooled buffer and enqueues it,
// shedding (with accounting) when the queue is full.
func (s *Server) recvLoop() {
	defer s.recvWG.Done()
	scratch := make([]byte, 64*1024)
	for {
		n, _, err := s.conn.ReadFromUDP(scratch)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient socket errors: keep serving.
			continue
		}
		bufp, _ := s.pool.Get().(*[]byte)
		*bufp = append((*bufp)[:0], scratch[:n]...)
		select {
		case s.queue <- *bufp:
		default:
			s.queueDrops.Add(1)
			s.pool.Put(bufp)
			// The datagram was never decoded, so its identity is unknown;
			// the shed is still on the record.
			s.journal.RecordNowShard(obs.StageServer, obs.VerdictQueueDrop, obs.ReportID{}, s.shard)
		}
	}
}

// ingestLoop decodes, validates, and submits queued datagrams.
func (s *Server) ingestLoop() {
	defer s.workWG.Done()
	for data := range s.queue {
		rep, err := DecodeReport(data)
		recycled := data
		s.pool.Put(&recycled)
		if err != nil {
			s.rejected.Add(1)
			s.journal.RecordNowShard(obs.StageServer, obs.VerdictRejected, obs.ReportID{}, s.shard)
			continue
		}
		if err := rep.Validate(); err != nil {
			s.rejected.Add(1)
			s.journal.RecordNowShard(obs.StageServer, obs.VerdictRejected, journalID(&rep, DefaultReportInterval), s.shard)
			continue
		}
		var id obs.ReportID
		if s.journal != nil {
			id = journalID(&rep, DefaultReportInterval)
			s.journal.RecordNowShard(obs.StageServer, obs.VerdictReceived, id, s.shard)
		}
		var submitErr error
		if s.sinkLatency != nil {
			tm := obs.StartTimer()
			submitErr = s.sink.Submit(rep)
			tm.ObserveSeconds(s.sinkLatency)
		} else {
			submitErr = s.sink.Submit(rep)
		}
		if submitErr != nil {
			s.sinkErrors.Add(1)
			s.journal.RecordNowShard(obs.StageServer, obs.VerdictSinkError, id, s.shard)
			continue
		}
		s.received.Add(1)
		s.journal.RecordNowShard(obs.StageServer, obs.VerdictPersisted, id, s.shard)
		if s.observe != nil {
			s.observe(rep)
		}
	}
}

// Client sends reports to a trace server over UDP, one report per
// datagram, exactly as the instrumented UUSee client does.
type Client struct {
	conn net.Conn
	buf  []byte
}

// Dial connects a client to the trace server at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("trace client: dial %q: %w", addr, err)
	}
	return &Client{conn: conn}, nil
}

var _ Sink = (*Client)(nil)

// Submit implements Sink: it encodes the report and ships it in a single
// datagram.
func (c *Client) Submit(r Report) error {
	c.buf = AppendReport(c.buf[:0], &r)
	if len(c.buf) > 64*1024 {
		return fmt.Errorf("trace client: report of %d bytes exceeds datagram limit", len(c.buf))
	}
	if _, err := c.conn.Write(c.buf); err != nil {
		return fmt.Errorf("trace client: send: %w", err)
	}
	return nil
}

// Close releases the client socket.
func (c *Client) Close() error { return c.conn.Close() }
