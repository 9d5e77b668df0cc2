package trace

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// tracedBytes encodes n sample reports into a complete binary stream.
func tracedBytes(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.Submit(sampleReport(uint32(200+i), _t0.Add(time.Duration(i)*time.Minute))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRecoveryScanCleanStream(t *testing.T) {
	data := tracedBytes(t, 7)
	res, err := ScanStream(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ScanStream: %v", err)
	}
	if res.Torn {
		t.Errorf("clean stream reported torn: %v", res.TailErr)
	}
	if res.Records != 7 {
		t.Errorf("Records = %d, want 7", res.Records)
	}
	if res.ValidBytes != int64(len(data)) {
		t.Errorf("ValidBytes = %d, want %d", res.ValidBytes, len(data))
	}
}

func TestRecoveryScanHeaderOnly(t *testing.T) {
	res, err := ScanStream(bytes.NewReader(tracedBytes(t, 0)))
	if err != nil {
		t.Fatalf("ScanStream: %v", err)
	}
	if res.Torn || res.Records != 0 || res.ValidBytes != 5 {
		t.Errorf("header-only stream: %+v", res)
	}
}

// TestRecoveryScanTornTails cuts a valid stream at every possible byte
// offset: each strict prefix must scan as torn (or clean at a record
// boundary) with ValidBytes on a real boundary — never an error, never
// a panic.
func TestRecoveryScanTornTails(t *testing.T) {
	data := tracedBytes(t, 3)
	full, err := ScanStream(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	boundaries := map[int64]bool{5: true, full.ValidBytes: true}
	// Reconstruct interior boundaries by scanning prefixes that end
	// exactly where a shorter scan said a record ends.
	for cut := 5; cut < len(data); cut++ {
		res, err := ScanStream(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		boundaries[res.ValidBytes] = true
		if res.ValidBytes > int64(cut) {
			t.Fatalf("cut %d: ValidBytes %d beyond stream", cut, res.ValidBytes)
		}
		if !res.Torn && res.ValidBytes != int64(cut) {
			t.Errorf("cut %d: clean scan stopped early at %d", cut, res.ValidBytes)
		}
	}
	// Header end plus three record ends (the last of which is the full
	// stream length, seeded above).
	if len(boundaries) != 4 {
		t.Errorf("saw %d distinct boundaries, want 4: %v", len(boundaries), boundaries)
	}
}

func TestRecoveryScanRejectsForeignStream(t *testing.T) {
	if _, err := ScanStream(bytes.NewReader([]byte("JUNKJUNKJUNK"))); err == nil {
		t.Error("foreign stream scanned without error")
	}
	// A short prefix of the real header is torn, not foreign.
	res, err := ScanStream(bytes.NewReader([]byte("MGL")))
	if err != nil {
		t.Fatalf("torn header: %v", err)
	}
	if !res.Torn || res.ValidBytes != 0 {
		t.Errorf("torn header scan: %+v", res)
	}
}

// TestRecoveryTornTail is the crash-restart path the serve daemon runs:
// a file cut mid-record is truncated back to its last intact record and
// then loads cleanly.
func TestRecoveryTornTail(t *testing.T) {
	data := tracedBytes(t, 5)
	path := filepath.Join(t.TempDir(), "torn.trace")
	// Cut the final record roughly in half.
	clean, err := ScanStream(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	cut := (int64(len(data)) + prevBoundary(t, data, clean.ValidBytes)) / 2
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := RecoverFile(path)
	if err != nil {
		t.Fatalf("RecoverFile: %v", err)
	}
	if !res.Recovered {
		t.Fatal("torn file not recovered")
	}
	if res.Records != 4 {
		t.Errorf("recovered %d records, want 4", res.Records)
	}
	if res.TruncatedBytes == 0 {
		t.Error("recovery truncated nothing")
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	store, err := LoadStore(f, 10*time.Minute)
	if err != nil {
		t.Fatalf("LoadStore after recovery: %v", err)
	}
	if store.Len() != 4 {
		t.Errorf("recovered file loads %d reports, want 4", store.Len())
	}

	// Recovery is idempotent: a second pass finds nothing to cut.
	again, err := RecoverFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if again.Recovered || again.TruncatedBytes != 0 {
		t.Errorf("second recovery modified a clean file: %+v", again)
	}
}

// prevBoundary returns the record boundary preceding end in data.
func prevBoundary(t *testing.T, data []byte, end int64) int64 {
	t.Helper()
	res, err := ScanStream(bytes.NewReader(data[:end-1]))
	if err != nil {
		t.Fatal(err)
	}
	return res.ValidBytes
}

func TestRecoveryTornHeaderTruncatesToZero(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stub.trace")
	if err := os.WriteFile(path, []byte("MGL"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := RecoverFile(path)
	if err != nil {
		t.Fatalf("RecoverFile: %v", err)
	}
	if !res.Recovered || res.TruncatedBytes != 3 {
		t.Errorf("torn-header recovery: %+v", res)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 0 {
		t.Errorf("file is %d bytes after torn-header recovery, want 0", info.Size())
	}
}

func TestRecoveryRefusesForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notatrace.bin")
	content := []byte("this is some other program's file")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverFile(path); err == nil {
		t.Fatal("foreign file recovered without error")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Error("foreign file was modified")
	}
}

func TestRecoveryCorruptInteriorRecord(t *testing.T) {
	data := tracedBytes(t, 6)
	clean, err := ScanStream(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the last record's payload: 10 bytes of 0xFF where its time
	// varint lives is a guaranteed uvarint overflow, so the frame reads
	// fine but the record fails to decode.
	boundary := prevBoundary(t, data, clean.ValidBytes)
	_, varintLen := binary.Uvarint(data[boundary:])
	for i := 0; i < 10; i++ {
		data[boundary+int64(varintLen)+int64(i)] = 0xFF
	}
	res, err := ScanStream(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Torn || res.Records != 5 || res.ValidBytes != boundary {
		t.Errorf("corrupt-tail scan: %+v (want torn at %d with 5 records)", res, boundary)
	}
}

// tornAfterPrefix cuts a two-record stream just past the second
// record's length prefix: the header, the whole first record, and a
// frame length whose payload never came. It returns the cut stream and
// the boundary where the first record ends.
func tornAfterPrefix(t *testing.T) (cut []byte, boundary int64) {
	t.Helper()
	data := tracedBytes(t, 2)
	boundary = prevBoundary(t, data, int64(len(data)))
	_, k := binary.Uvarint(data[boundary:])
	return data[:boundary+int64(k)], boundary
}

// TestTornAfterLengthPrefix: a stream cut right after a frame's length
// prefix is torn for every reader, never a clean end.
func TestTornAfterLengthPrefix(t *testing.T) {
	data, boundary := tornAfterPrefix(t)

	if _, err := LoadStore(bytes.NewReader(data), 0); err == nil {
		t.Error("LoadStore read a torn stream as a clean one")
	}
	if _, _, err := MergeStreams(0, MergeOptions{}, bytes.NewReader(data)); err == nil {
		t.Error("strict MergeStreams accepted a torn stream")
	}
	_, stats, err := MergeStreams(0, MergeOptions{Tolerant: true}, bytes.NewReader(data))
	if err != nil {
		t.Fatalf("tolerant MergeStreams: %v", err)
	}
	if stats.TornSources != 1 || stats.Records != 1 {
		t.Errorf("tolerant merge stats %+v, want 1 torn source and its 1 intact record", stats)
	}
	res, err := ScanStream(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Torn || res.Records != 1 || res.ValidBytes != boundary {
		t.Errorf("scan %+v, want torn at %d after 1 record", res, boundary)
	}
}
