package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
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
		Time:    time.Unix(0, int64(head[0])).UTC(),
		Addr:    isp.Addr(head[1]),
		Port:    uint16(head[2]),
		Channel: string(rest[:n]),
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
		r.Partners = make([]PartnerRecord, np)
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

// Reader streams reports from the binary format.
type Reader struct {
	br  *bufio.Reader
	buf []byte
	off int64 // bytes consumed: the header and every whole frame read
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
	head, err := r.br.Peek(binary.MaxVarintLen64)
	if len(head) == 0 && err == io.EOF {
		return Report{}, io.EOF
	}
	n, k := binary.Uvarint(head)
	if k == 0 {
		return Report{}, fmt.Errorf("trace: read frame: %w", unexpected(err))
	}
	if k < 0 || n > _maxRecordSize {
		return Report{}, fmt.Errorf("%w: record longer than %d bytes", ErrCorrupt, _maxRecordSize)
	}
	frame := k + int(n)
	if cap(r.buf) < frame {
		r.buf = make([]byte, frame)
	}
	r.buf = r.buf[:frame]
	if _, err := io.ReadFull(r.br, r.buf); err != nil {
		return Report{}, fmt.Errorf("trace: read record: %w", unexpected(err))
	}
	r.off += int64(frame)
	return DecodeReport(r.buf[k:])
}

// unexpected maps the io.EOF of a stream that stops inside a frame to
// io.ErrUnexpectedEOF.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// LoadStore reads a whole binary trace stream into a Store.
func LoadStore(src io.Reader, interval time.Duration) (*Store, error) {
	rd, err := NewReader(src)
	if err != nil {
		return nil, err
	}
	store := NewStore(interval)
	for {
		rep, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return store, nil
		}
		if err != nil {
			return nil, err
		}
		if err := store.Submit(rep); err != nil {
			return nil, err
		}
	}
}
