package trace

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// Torn-tail recovery. A trace server killed mid-write (crash, power
// loss, SIGKILL) leaves its current file ending in a partial record: a
// frame length with no payload, or a payload cut short. The format has
// no footer, so the only way to tell a clean file from a torn one is to
// walk the records. ScanStream does that walk and reports where the
// last intact record ends; RecoverFile truncates the file back to that
// boundary so readers see a valid stream instead of ErrCorrupt.

// ScanResult describes how far into a stream the records stay intact.
type ScanResult struct {
	// Records is the number of fully intact records.
	Records int
	// ValidBytes is the stream offset just past the last intact record
	// (or past the header when no records survive). Bytes beyond it are
	// torn.
	ValidBytes int64
	// Torn reports whether the stream ended inside a record (or inside
	// the header) rather than at a record boundary.
	Torn bool
	// TailErr is the decode error that ended a torn scan; nil on a
	// clean stream.
	TailErr error
}

// ScanStream walks a binary trace stream record by record and returns
// how much of it is intact. A stream that is not a binary trace at all
// (wrong magic, unsupported version) is an error, not a torn tail:
// truncation would destroy a file that was never ours to repair. A
// short header that matches the magic so far is torn — that is what a
// crash during file creation leaves behind.
func ScanStream(r io.Reader) (ScanResult, error) {
	rd, err := NewReader(r)
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return ScanResult{Torn: true, TailErr: err}, nil
	}
	if err != nil {
		return ScanResult{}, err
	}
	res := ScanResult{ValidBytes: rd.off}
	for {
		_, err := rd.Next()
		if errors.Is(err, io.EOF) {
			// Clean end exactly at a record boundary.
			return res, nil
		}
		if err != nil {
			res.Torn = true
			res.TailErr = err
			return res, nil
		}
		res.Records++
		res.ValidBytes = rd.off
	}
}

// RecoverResult describes what RecoverFile did.
type RecoverResult struct {
	// Recovered reports whether the file was torn and has been
	// truncated back to its last intact record.
	Recovered bool
	// Records is the number of intact records the file holds.
	Records int
	// TruncatedBytes is how many torn-tail bytes were cut.
	TruncatedBytes int64
}

// RecoverFile repairs a trace file left torn by a crash: it scans to
// the last intact record and truncates the tail. A clean file is left
// untouched. A file that is not a binary trace is an error and is never
// modified. A file torn inside the header is truncated to zero bytes —
// there is nothing to save.
func RecoverFile(path string) (RecoverResult, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return RecoverResult{}, err
	}
	defer f.Close()

	info, err := f.Stat()
	if err != nil {
		return RecoverResult{}, err
	}
	scan, err := ScanStream(f)
	if err != nil {
		return RecoverResult{}, fmt.Errorf("trace: recover %s: %w", path, err)
	}
	res := RecoverResult{Records: scan.Records}
	if !scan.Torn {
		return res, nil
	}
	res.Recovered = true
	res.TruncatedBytes = info.Size() - scan.ValidBytes
	if err := f.Truncate(scan.ValidBytes); err != nil {
		return RecoverResult{}, fmt.Errorf("trace: recover %s: truncate: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return RecoverResult{}, fmt.Errorf("trace: recover %s: sync: %w", path, err)
	}
	return res, nil
}
