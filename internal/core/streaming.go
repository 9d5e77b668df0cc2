package core

import (
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/trace"
)

// AnalyzeStream runs the full pipeline over a binary trace stream in a
// single pass — the mode a 120 GB production trace (the paper's) demands.
// Reports must be roughly time-ordered: anything arriving more than one
// epoch behind the newest epoch seen is dropped and counted in the
// returned drop count.
//
// The calling goroutine only frames and routes: it reads each frame
// through rd's frame loop, reads the payload's time alone
// (trace.ReportTime), and appends the payload, undecoded, to its epoch's
// buffer in a trace.Closer with one shard and lateness 1, which holds
// the two newest epochs open. As each epoch closes it goes to the kernel
// pool. A worker decodes the epoch with its own trace.Decoder, validates
// its reports, builds its columns, hands the payload buffer back for a
// later epoch and runs the kernel; results are committed in close order,
// so the output is identical for any worker count. A worker rewinds its
// decoder's partner slabs at the start of each epoch, when the previous
// epoch's kernel and day fold are done and nothing points into them.
//
// Memory holds the undecoded payloads of the two newest epochs, plus one
// epoch per worker, decoded into that worker's slabs and columns; the
// payload buffers circulate between the two sides. Once the buffers and
// each worker's slabs have grown to the largest epoch, the stream
// allocates nothing per report, only each epoch's metrics.
//
// The error and the drop count are those of a loop that decodes and
// routes one report at a time and validates an epoch's reports as the
// epoch closes (see streamFault).
//
// Differences from Analyze: the online policy applies (HeavyEveryN
// defaults to the streaming cadence and the Fig. 4 fallback snapshots are
// unavailable), because the total epoch count is unknown up front.
func AnalyzeStream(rd *trace.Reader, db *isp.Database, cfg Config, interval time.Duration) (*Results, int, error) {
	if interval <= 0 {
		interval = trace.DefaultReportInterval
	}
	k := onlineKernel(interval, db, cfg)
	p := startPool(k, true)
	s := &streamReader{p: p, interval: interval, epochs: trace.NewCloser[epochFrames](1, 1)}
	s.read(rd)
	// The payloads of the epochs still open can hold a fault no worker
	// will see; reading stops short of a clean end only on a fault.
	s.epochs.Each(func(_ int64, ef *epochFrames) {
		s.note(ef.decode(&s.dec, nil))
	})
	outs := p.wait()
	for _, j := range p.sent {
		s.note(j.fault)
	}
	if s.fault != nil {
		return nil, s.fault.dropped, s.fault.err
	}
	dropped := int(s.epochs.Stragglers())
	if len(outs) == 0 {
		return nil, dropped, fmt.Errorf("core: stream held no reports")
	}
	days := mergeDays(k.cfg.Tracer, p.scratches)
	sp := k.cfg.Tracer.Start("assemble")
	defer sp.End()
	res, err := assemble(interval, k.cfg, k.cfg.Snapshots, outs, days)
	return res, dropped, err
}

// streamReader is AnalyzeStream's reading side: it frames the stream,
// routes each payload by its time into its epoch's buffer, and sends
// each epoch the closer closes to the pool.
type streamReader struct {
	p        *pool
	epochs   *trace.Closer[epochFrames]
	interval time.Duration
	frame    int           // the index of the frame being read: frames routed so far
	payload  []byte        // the frame being routed
	dec      trace.Decoder // decodes the payloads no worker will see
	fault    *streamFault  // the earliest fault known
}

// read routes frames until the stream ends, closing every open epoch at
// a clean end, or until a fault is known.
func (s *streamReader) read(rd *trace.Reader) {
	for s.fault == nil && !s.p.failed.Load() {
		payload, err := rd.AppendFrame(s.payload[:0])
		if errors.Is(err, io.EOF) {
			s.epochs.Drain(s.send)
			return
		}
		s.payload = payload
		ref := frameRef{index: s.frame, dropped: int(s.epochs.Stragglers())}
		if err == nil {
			err = s.route(payload, ref)
		}
		if err != nil {
			s.fault = ref.fault(err)
			return
		}
		s.frame++
	}
}

// route appends a payload to its epoch's buffer, taking a buffer a
// worker has handed back when the epoch is new. A straggler is dropped,
// once decoded for its error alone. The error is the payload's, when it
// cannot be routed or is a straggler that does not decode.
func (s *streamReader) route(payload []byte, ref frameRef) error {
	at, err := trace.ReportTime(payload)
	if err != nil {
		return err
	}
	ef := s.epochs.Observe(0, trace.EpochOf(at, s.interval), s.send)
	if ef == nil {
		s.dec.Rewind()
		_, err := s.dec.Decode(payload)
		return err
	}
	if ef.frames == nil {
		select {
		case *ef = <-s.p.spent:
		default:
		}
	}
	ef.data = append(reserve(ef.data, len(payload)), payload...)
	ref.end = len(ef.data)
	ef.frames = append(reserve(ef.frames, 1), ref)
	return nil
}

// send hands a closed epoch to the pool. Routing frame s.frame closed
// it, or, when s.frame is the frame count, the drain at the end did.
func (s *streamReader) send(epoch int64, ef *epochFrames) {
	s.p.send(&poolJob{epoch: epoch, frames: ef, closedAt: s.frame, dropped: int(s.epochs.Stragglers())})
}

// note keeps f if it comes before the earliest fault known.
func (s *streamReader) note(f *streamFault) {
	if f.before(s.fault) {
		s.fault = f
	}
}

// streamFault is an error met by AnalyzeStream, placed where a loop that
// decodes and routes one report at a time, and validates an epoch's
// reports in arrival order as the epoch closes, meets it: such a loop
// stops at its first fault, with the stragglers counted by then. Reading
// a frame, decoding it included, comes before routing it, and routing a
// frame can close epochs, in ascending order. AnalyzeStream meets faults
// out of that order, on its reading goroutine and on its workers, and
// returns the earliest.
type streamFault struct {
	err     error
	frame   int  // the frame being read, or routed when closing
	closing bool // met validating an epoch that routing frame closed
	pos     int  // the closing epoch's send position
	dropped int  // stragglers routed before the fault
}

// before reports whether f comes before g; a nil fault comes after
// every fault.
func (f *streamFault) before(g *streamFault) bool {
	switch {
	case f == nil:
		return false
	case g == nil:
		return true
	case f.frame != g.frame:
		return f.frame < g.frame
	case f.closing != g.closing:
		return !f.closing
	}
	return f.pos < g.pos
}

// epochFrames is one epoch of the stream, undecoded: its payloads back to
// back in arrival order, and where each one ends.
type epochFrames struct {
	data   []byte
	frames []frameRef
}

// frameRef places one frame: its index in the stream, the stragglers
// routed before it, and, once routed, where its payload ends in its
// epoch's data.
type frameRef struct {
	end, index, dropped int
}

// fault is the fault met reading the frame, decoding it included.
func (f frameRef) fault(err error) *streamFault {
	return &streamFault{err: fmt.Errorf("core: stream: %w", err), frame: f.index, dropped: f.dropped}
}

// decode decodes the epoch's payloads in arrival order with dec, rewound
// first, and passes each report to use unless use is nil. It returns the
// fault of the first payload that does not decode.
func (ef *epochFrames) decode(dec *trace.Decoder, use func(trace.Report)) *streamFault {
	dec.Rewind()
	start := 0
	for _, f := range ef.frames {
		rep, err := dec.Decode(ef.data[start:f.end])
		if err != nil {
			return f.fault(err)
		}
		if use != nil {
			use(rep)
		}
		start = f.end
	}
	return nil
}

// decodeEpoch decodes a stream job's epoch with the worker's decoder into
// its columns, which it resets first: they held the last of the previous
// epoch's partner lists. It returns the epoch's first fault: its first
// payload that does not decode, else its first report that fails
// validation.
func (sc *epochScratch) decodeEpoch(j *poolJob) *streamFault {
	sc.cols.Reset()
	var invalid *streamFault
	if f := j.frames.decode(&sc.dec, func(rep trace.Report) {
		if err := rep.Validate(); err != nil && invalid == nil {
			invalid = &streamFault{err: err, frame: j.closedAt, closing: true, pos: j.pos, dropped: j.dropped}
		}
		sc.cols.Add(rep)
	}); f != nil {
		return f
	}
	return invalid
}
