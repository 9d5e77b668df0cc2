package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
)

// Binary trace format: a 5-byte header ("MGLT" + version) followed by
// length-prefixed report payloads. Integers are unsigned varints, floats
// are little-endian IEEE-754 doubles. A two-week scaled trace compresses
// roughly 4× versus JSON lines.
var (
	_magic = [4]byte{'M', 'G', 'L', 'T'}

	// ErrBadMagic reports a stream that is not a binary trace.
	ErrBadMagic = errors.New("trace: bad magic, not a binary trace stream")
	// ErrBadVersion reports an unsupported format version.
	ErrBadVersion = errors.New("trace: unsupported trace format version")
	// ErrCorrupt reports a structurally invalid record.
	ErrCorrupt = errors.New("trace: corrupt record")
)

const _version = 1

// _maxRecordSize bounds a single encoded report (a full 512-partner list
// is well under this).
const _maxRecordSize = 1 << 20

// AppendReport encodes a report payload (no length framing) onto buf.
func AppendReport(buf []byte, r *Report) []byte {
	buf = binary.AppendUvarint(buf, uint64(r.Time.UnixNano()))
	buf = binary.AppendUvarint(buf, uint64(r.Addr))
	buf = binary.AppendUvarint(buf, uint64(r.Port))
	buf = binary.AppendUvarint(buf, uint64(len(r.Channel)))
	buf = append(buf, r.Channel...)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.UpKbps))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.DownKbps))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.RecvKbps))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.SentKbps))
	buf = binary.LittleEndian.AppendUint64(buf, r.BufferMap)
	buf = binary.AppendUvarint(buf, uint64(r.PlayPoint))
	buf = binary.AppendUvarint(buf, uint64(len(r.Partners)))
	for _, p := range r.Partners {
		buf = binary.AppendUvarint(buf, uint64(p.Addr))
		buf = binary.AppendUvarint(buf, uint64(p.Port))
		buf = binary.AppendUvarint(buf, uint64(p.SentSeg))
		buf = binary.AppendUvarint(buf, uint64(p.RecvSeg))
	}
	return buf
}

// errTruncated reports a payload that ends inside a field or holds an
// over-long varint.
var errTruncated = fmt.Errorf("%w: truncated field", ErrCorrupt)

// DecodeReport decodes one report payload produced by AppendReport. It
// reads the payload in place and allocates only the channel name and the
// partner list, each after checking that the payload holds the bytes they
// need, so a forged length costs no more memory than the payload itself.
// Any input AppendReport could not have produced yields an error wrapping
// ErrCorrupt and a zero Report.
func DecodeReport(data []byte) (Report, error) {
	return (*Decoder)(nil).Decode(data)
}

// ReportTime reads only a report payload's leading field, its time: the
// Time DecodeReport returns when it accepts the payload. A payload whose
// time field is truncated or over-long yields the error DecodeReport
// returns for it. It lets a reader route a payload by epoch before any
// decoder has seen the rest.
func ReportTime(data []byte) (time.Time, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return time.Time{}, errTruncated
	}
	return unixTime(v), nil
}

// unixTime is the time a payload's time field encodes.
func unixTime(v uint64) time.Time { return time.Unix(0, int64(v)).UTC() }

const (
	// _slabRecords is the length of one partner slab (64 KiB), which
	// holds a few hundred typical partner lists and any list up to
	// MaxPartnersPerReport.
	_slabRecords = 4096
	// _maxInterned and _maxInternedLen bound a decoder's channel-name
	// table, so a stream of ever-new or outsized names costs one string
	// each and grows the table by at most 64 KiB of names.
	_maxInterned    = 1024
	_maxInternedLen = 64
)

// Decoder is DecodeReport's body with the allocation of a report's
// channel name and partner list made cheap for a stream of reports: it
// cuts each partner list from a shared slab, with capacity equal to its
// length so an append to one list cannot reach the next, and it interns
// channel names, up to _maxInterned of them and _maxInternedLen bytes
// each. A nil *Decoder allocates both per report, as DecodeReport does.
// The Reader, each LoadStore worker and each core.AnalyzeStream worker
// decode with one. A Decoder is not safe for concurrent use.
type Decoder struct {
	slab    []PartnerRecord   // the unused tail of the current slab
	names   map[string]string // interned channel names
	recycle bool              // set by Rewind: keep every slab in slabs
	slabs   [][]PartnerRecord // the slabs kept for reuse, in cutting order
	next    int               // slabs[next] is the next kept slab to cut from
}

// Rewind lets the decoder cut partner lists from the start of its slabs
// again: every partner list it has returned may be overwritten by the
// next Decode, so the caller must be done with them. From its first
// Rewind on, a decoder keeps the slabs it cuts, and one rewound before
// each batch of reports allocates partner storage only for a batch that
// needs more than any batch before it.
func (d *Decoder) Rewind() {
	d.recycle = true
	d.slab, d.next = nil, 0
}

// Decode decodes one report payload produced by AppendReport, as
// DecodeReport does. The report's partner list is cut from the
// decoder's slab and its channel name may be shared with other reports.
func (d *Decoder) Decode(data []byte) (Report, error) {
	var head [4]uint64 // time, address, port, channel length
	rest, ok := uvarints(data, head[:])
	if !ok {
		return Report{}, errTruncated
	}
	n := head[3]
	if n > _maxRecordSize || n > uint64(len(rest)) {
		return Report{}, fmt.Errorf("%w: channel length %d with %d bytes left", ErrCorrupt, n, len(rest))
	}
	r := Report{
		Time:    unixTime(head[0]),
		Addr:    isp.Addr(head[1]),
		Port:    uint16(head[2]),
		Channel: d.channel(rest[:n]),
	}
	rest = rest[n:]
	if len(rest) < 5*8 {
		return Report{}, errTruncated
	}
	le := binary.LittleEndian
	r.UpKbps = math.Float64frombits(le.Uint64(rest))
	r.DownKbps = math.Float64frombits(le.Uint64(rest[8:]))
	r.RecvKbps = math.Float64frombits(le.Uint64(rest[16:]))
	r.SentKbps = math.Float64frombits(le.Uint64(rest[24:]))
	r.BufferMap = le.Uint64(rest[32:])
	var tail [2]uint64 // play point, partner count
	if rest, ok = uvarints(rest[5*8:], tail[:]); !ok {
		return Report{}, errTruncated
	}
	r.PlayPoint = uint32(tail[0])
	np := tail[1]
	// Every partner takes at least four one-byte varints.
	if np > MaxPartnersPerReport || np*4 > uint64(len(rest)) {
		return Report{}, fmt.Errorf("%w: %d partners with %d bytes left", ErrCorrupt, np, len(rest))
	}
	if np > 0 {
		r.Partners = d.partners(int(np))
	}
	var p [4]uint64 // address, port, sent, received
	for i := range r.Partners {
		if rest, ok = uvarints(rest, p[:]); !ok {
			return Report{}, errTruncated
		}
		r.Partners[i] = PartnerRecord{
			Addr:    isp.Addr(p[0]),
			Port:    uint16(p[1]),
			SentSeg: uint32(p[2]),
			RecvSeg: uint32(p[3]),
		}
	}
	if len(rest) != 0 {
		return Report{}, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	return r, nil
}

// channel returns b as a string, interned when d has room.
func (d *Decoder) channel(b []byte) string {
	if d == nil {
		return string(b)
	}
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(d.names) < _maxInterned && len(s) <= _maxInternedLen {
		if d.names == nil {
			d.names = make(map[string]string)
		}
		d.names[s] = s
	}
	return s
}

// partners returns a list of n records, cut from the slab when d is
// non-nil.
func (d *Decoder) partners(n int) []PartnerRecord {
	if d == nil {
		return make([]PartnerRecord, n)
	}
	if len(d.slab) < n {
		d.slab = d.nextSlab()
	}
	list := d.slab[:n:n]
	d.slab = d.slab[n:]
	return list
}

// nextSlab returns a whole slab to cut from: the next kept one, or a new
// one, which a decoder that has been rewound keeps.
func (d *Decoder) nextSlab() []PartnerRecord {
	if !d.recycle {
		return make([]PartnerRecord, _slabRecords)
	}
	if d.next == len(d.slabs) {
		d.slabs = append(d.slabs, make([]PartnerRecord, _slabRecords))
	}
	d.next++
	return d.slabs[d.next-1]
}

// uvarints decodes len(dst) consecutive uvarints from the front of b and
// returns the bytes after them. ok is false if b ends inside them or one
// is longer than a uint64.
func uvarints(b []byte, dst []uint64) (rest []byte, ok bool) {
	for k := range dst {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, false
		}
		dst[k], b = v, b[n:]
	}
	return b, true
}

// Writer streams reports in the binary format. It implements Sink.
type Writer struct {
	bw  *bufio.Writer
	buf []byte
}

var _ Sink = (*Writer)(nil)

// NewWriter writes the header and returns a streaming writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(_magic[:]); err != nil {
		return nil, fmt.Errorf("trace: write header: %w", err)
	}
	if err := bw.WriteByte(_version); err != nil {
		return nil, fmt.Errorf("trace: write header: %w", err)
	}
	return &Writer{bw: bw}, nil
}

// Submit implements Sink.
func (w *Writer) Submit(r Report) error {
	w.buf = AppendReport(w.buf[:0], &r)
	var frame [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(frame[:], uint64(len(w.buf)))
	if _, err := w.bw.Write(frame[:n]); err != nil {
		return fmt.Errorf("trace: write frame: %w", err)
	}
	if _, err := w.bw.Write(w.buf); err != nil {
		return fmt.Errorf("trace: write record: %w", err)
	}
	return nil
}

// Flush pushes buffered bytes to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Reader streams reports from the binary format. It decodes with one
// Decoder, so the reports it returns share partner slabs and channel
// names with one another.
type Reader struct {
	br  *bufio.Reader
	buf []byte
	off int64 // bytes consumed: the header and every whole frame read
	dec Decoder
}

// NewReader validates the header and returns a streaming reader. A
// stream that ends inside the header, having matched the magic so far,
// is torn — what a crash during file creation leaves — and its error
// wraps io.ErrUnexpectedEOF; any other stream that is not a binary
// trace is ErrBadMagic or ErrBadVersion.
func NewReader(r io.Reader) (*Reader, error) {
	rd := &Reader{br: bufio.NewReaderSize(r, 1<<16)}
	var hdr [5]byte
	n, err := io.ReadFull(rd.br, hdr[:])
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		if !bytes.Equal(hdr[:n], _magic[:n]) {
			return nil, ErrBadMagic
		}
		return nil, fmt.Errorf("trace: torn header (%d bytes): %w", n, io.ErrUnexpectedEOF)
	}
	if err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	if !bytes.Equal(hdr[:4], _magic[:]) {
		return nil, ErrBadMagic
	}
	if hdr[4] != _version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, hdr[4])
	}
	rd.off = int64(n)
	return rd, nil
}

// Next returns the next report, or io.EOF when the stream ends exactly
// at a record boundary. A stream that ends inside a frame is torn: the
// error wraps io.ErrUnexpectedEOF, so no reader loop takes it for a
// clean end.
func (r *Reader) Next() (Report, error) {
	buf, err := r.AppendFrame(r.buf[:0])
	r.buf = buf
	if err != nil {
		return Report{}, err
	}
	return r.dec.Decode(buf)
}

// AppendFrame is the one frame loop: it reads the next frame and appends
// its payload, undecoded, to buf. At a clean end of stream it returns
// buf and io.EOF; on any other error, the one Next would return, it
// returns buf as it was.
func (r *Reader) AppendFrame(buf []byte) ([]byte, error) {
	head, err := r.br.Peek(binary.MaxVarintLen64)
	if len(head) == 0 && err == io.EOF {
		return buf, io.EOF
	}
	n, k := binary.Uvarint(head)
	if k == 0 {
		return buf, fmt.Errorf("trace: read frame: %w", unexpected(err))
	}
	if k < 0 || n > _maxRecordSize {
		return buf, fmt.Errorf("%w: record longer than %d bytes", ErrCorrupt, _maxRecordSize)
	}
	if _, err := r.br.Discard(k); err != nil {
		return buf, fmt.Errorf("trace: read frame: %w", err)
	}
	start := len(buf)
	out := slices.Grow(buf, int(n))[:start+int(n)]
	if _, err := io.ReadFull(r.br, out[start:]); err != nil {
		return buf, fmt.Errorf("trace: read record: %w", unexpected(err))
	}
	r.off += int64(k) + int64(n)
	return out, nil
}

// unexpected maps the io.EOF of a stream that stops inside a frame to
// io.ErrUnexpectedEOF.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// _chunkBytes is the payload volume LoadStore hands a decode worker at
// once: large enough that the hand-off is rare, small enough that a few
// chunks per worker keep every worker busy.
const _chunkBytes = 64 << 10

// chunk is a run of consecutive frames on its way through LoadStore:
// their payloads back to back and each one's end, then the reports a
// worker decoded from them and the decode error that stopped it, if any.
// done receives once the worker is finished with it.
type chunk struct {
	data    []byte
	ends    []int
	reports []Report
	err     error
	done    chan struct{}
}

// LoadStore reads a whole binary trace stream into a Store. Its loop is
// the one that submits trace files to a store: MergeStreams loads every
// source through it too. The caller's goroutine reads the frames, as
// Next does, in chunks of about _chunkBytes; GOMAXPROCS workers decode
// the chunks, each with its own decoder; and the caller submits every
// chunk's reports to the store in stream order. The store, and the first
// error in stream order — a frame that cannot be read, a record that
// cannot be decoded, a report the store rejects — are those a loop of
// Next and Submit gives. Every worker has exited when LoadStore returns.
func LoadStore(src io.Reader, interval time.Duration) (*Store, error) {
	rd, err := NewReader(src)
	if err != nil {
		return nil, err
	}
	store := NewStore(interval)
	if err := rd.load(store, nil); err != nil {
		return nil, err
	}
	return store, nil
}

// load is LoadStore's body: it submits the rest of r's stream to store
// and returns the first error in stream order. With tolerant non-nil it
// survives damage and counts it there instead: a report the store
// rejects is skipped and counted in InvalidRecords, and a frame that
// cannot be read or decoded ends the stream, counted in TornSources.
func (r *Reader) load(store *Store, tolerant *MergeStats) error {
	workers := runtime.GOMAXPROCS(0)
	// jobs holds every chunk in flight, so the send below never blocks:
	// the loop keeps at most cap(jobs) chunks pending, two per worker so
	// a worker finds its next chunk ready when it finishes one.
	jobs := make(chan *chunk, 2*workers)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go decodeChunks(&wg, jobs)
	}
	defer func() {
		close(jobs)
		wg.Wait()
	}()

	var pending, spare []*chunk // chunks in flight, in stream order; chunks to refill
	var streamErr error         // what ended the stream: io.EOF at a clean end
	for {
		for streamErr == nil && len(pending) < cap(jobs) {
			var c *chunk
			if n := len(spare); n > 0 {
				c, spare = spare[n-1], spare[:n-1]
			} else {
				// Room for the frame that crosses _chunkBytes, so a
				// chunk's buffer is sized once.
				c = &chunk{data: make([]byte, 0, _chunkBytes*5/4), done: make(chan struct{}, 1)}
			}
			if streamErr = r.fill(c); len(c.ends) > 0 {
				pending = append(pending, c)
				jobs <- c
			}
		}
		if len(pending) == 0 {
			break
		}
		c := pending[0]
		<-c.done
		pending = append(pending[:0], pending[1:]...)
		for i := range c.reports {
			if err := store.Submit(c.reports[i]); err != nil {
				if tolerant == nil {
					return err
				}
				tolerant.InvalidRecords++
			}
		}
		if c.err != nil {
			streamErr = c.err // it precedes every frame read after it
			break
		}
		spare = append(spare, c)
	}
	switch {
	case streamErr == io.EOF:
		return nil
	case tolerant == nil:
		return streamErr
	}
	tolerant.TornSources++
	return nil
}

// fill reads frames into c until it holds _chunkBytes of payload, and
// returns the error that ended the stream first, io.EOF at a clean end.
func (r *Reader) fill(c *chunk) error {
	c.data, c.ends = c.data[:0], c.ends[:0]
	for len(c.data) < _chunkBytes {
		data, err := r.AppendFrame(c.data)
		if err != nil {
			return err
		}
		c.data = data
		c.ends = append(c.ends, len(data))
	}
	return nil
}

// decodeChunks is one LoadStore worker: it decodes the chunks it is sent
// with its own decoder until jobs is closed.
func decodeChunks(wg *sync.WaitGroup, jobs <-chan *chunk) {
	defer wg.Done()
	var d Decoder
	for c := range jobs {
		c.reports, c.err = c.reports[:0], nil
		start := 0
		for _, end := range c.ends {
			rep, err := d.Decode(c.data[start:end])
			if err != nil {
				c.err = err
				break
			}
			c.reports = append(c.reports, rep)
			start = end
		}
		c.done <- struct{}{}
	}
}
