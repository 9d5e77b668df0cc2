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

// member is what a Fleet hands each server it starts. It is fixed
// before the server's goroutines start, and they read it unsynchronized.
type member struct {
	// queueDepth bounds the ingest queue.
	queueDepth int
	// journal, when non-nil, records server-plane lifecycle events:
	// received/persisted for accepted datagrams, rejected for
	// decode/validation failures, queue_drop for sheds, sink_error for
	// refused reports. Events for datagrams that never decoded (sheds,
	// rejects) carry what is known — an empty ID — rather than
	// inventing one. The disabled (nil) recorder costs nothing.
	journal *obs.Journal
	// shard is the 1-based label the member's journal events carry; 0
	// in a one-member fleet, whose events are unlabeled.
	shard int32
	// latency, when non-nil, observes the wall time of every sink
	// submit; the fleet pools one histogram across its members. nil
	// means telemetry is off, and the ingest loop reads no clock.
	latency *obs.Histogram
	// observe, when non-nil, receives every report the sink accepted,
	// after the successful submit and from the ingest goroutine (see
	// FleetConfig.Observe).
	observe func(r Report)
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

// Server is one trace server of Sec. 3.2, a member of a Fleet: it
// receives one binary-encoded report per UDP datagram and submits it to
// a sink. Ingestion is two-stage — the receive loop copies datagrams
// into a bounded queue and a worker decodes, validates, and submits —
// so a slow sink costs queue drops (counted) instead of kernel-level
// receive-buffer losses (invisible). Datagrams that fail to decode or
// validate are counted and dropped: a measurement pipeline must survive
// malformed input.
type Server struct {
	conn   *net.UDPConn
	sink   Sink
	member // what the fleet handed this server

	queue chan []byte
	pool  sync.Pool

	received   atomic.Uint64
	rejected   atomic.Uint64
	queueDrops atomic.Uint64
	sinkErrors atomic.Uint64

	recvWG sync.WaitGroup
	workWG sync.WaitGroup
	once   sync.Once
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

// serve starts a fleet member's receive and ingest loops on a bound
// socket.
func serve(conn *net.UDPConn, sink Sink, m member) *Server {
	s := &Server{
		conn:   conn,
		sink:   sink,
		member: m,
		queue:  make(chan []byte, m.queueDepth),
		pool: sync.Pool{New: func() any {
			buf := make([]byte, 0, 64*1024)
			return &buf
		}},
	}
	s.recvWG.Add(1)
	go s.recvLoop()
	s.workWG.Add(1)
	go s.ingestLoop()
	return s
}

// Addr returns the bound address, useful when listening on port 0.
func (s *Server) Addr() net.Addr { return s.conn.LocalAddr() }

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
		if s.latency != nil {
			tm := obs.StartTimer()
			submitErr = s.sink.Submit(rep)
			tm.ObserveSeconds(s.latency)
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
