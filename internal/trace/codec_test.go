package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
)

func randomReport(rng *rand.Rand) Report {
	np := rng.Intn(60)
	partners := make([]PartnerRecord, np)
	for i := range partners {
		partners[i] = PartnerRecord{
			Addr:    isp.Addr(rng.Uint32()%0xfffffffe + 1),
			Port:    uint16(rng.Intn(65536)),
			SentSeg: rng.Uint32() % 10000,
			RecvSeg: rng.Uint32() % 10000,
		}
	}
	if np == 0 {
		partners = nil
	}
	return Report{
		Time:      _t0.Add(time.Duration(rng.Int63n(int64(14 * 24 * time.Hour)))),
		Addr:      isp.Addr(rng.Uint32()%0xfffffffe + 1),
		Port:      uint16(rng.Intn(65536)),
		Channel:   []string{"CCTV1", "CCTV4", "CH007", "一频道"}[rng.Intn(4)],
		UpKbps:    rng.Float64() * 10000,
		DownKbps:  rng.Float64() * 10000,
		RecvKbps:  rng.Float64() * 500,
		SentKbps:  rng.Float64() * 2000,
		BufferMap: rng.Uint64(),
		PlayPoint: rng.Uint32(),
		Partners:  partners,
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for i := 0; i < 500; i++ {
		orig := randomReport(rng)
		buf := AppendReport(nil, &orig)
		back, err := DecodeReport(buf)
		if err != nil {
			t.Fatalf("iteration %d: DecodeReport: %v", i, err)
		}
		if !orig.Time.Equal(back.Time) {
			t.Fatalf("iteration %d: time changed %v → %v", i, orig.Time, back.Time)
		}
		orig.Time, back.Time = time.Time{}, time.Time{}
		if !reflect.DeepEqual(orig, back) {
			t.Fatalf("iteration %d: round trip mismatch:\n got %+v\nwant %+v", i, back, orig)
		}
	}
}

func TestStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	reports := make([]Report, 200)
	for i := range reports {
		reports[i] = randomReport(rng)
	}

	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for _, r := range reports {
		if err := w.Submit(r); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	for i := range reports {
		got, err := rd.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if got.Addr != reports[i].Addr || len(got.Partners) != len(reports[i].Partners) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if _, err := rd.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("after last record, err = %v, want io.EOF", err)
	}
}

func TestReaderRejectsBadHeader(t *testing.T) {
	if _, err := NewReader(strings.NewReader("not a trace at all")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: err = %v, want ErrBadMagic", err)
	}
	if _, err := NewReader(strings.NewReader("MGLT\x63")); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: err = %v, want ErrBadVersion", err)
	}
	if _, err := NewReader(strings.NewReader("MG")); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestDecodeCorruptPayloads(t *testing.T) {
	orig := sampleReport(42, _t0)
	good := AppendReport(nil, &orig)

	// Every strict prefix of a valid payload must fail loudly, not panic.
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeReport(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage is corruption too.
	if _, err := DecodeReport(append(append([]byte{}, good...), 0xde, 0xad)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing bytes: err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeHugePartnerCount(t *testing.T) {
	r := sampleReport(42, _t0)
	r.Partners = nil
	buf := AppendReport(nil, &r)
	// The last varint is the partner count (0); replace it with a huge
	// value.
	buf = buf[:len(buf)-1]
	buf = append(buf, 0xff, 0xff, 0xff, 0x7f) // large varint
	if _, err := DecodeReport(buf); !errors.Is(err, ErrCorrupt) {
		t.Errorf("huge partner count: err = %v, want ErrCorrupt", err)
	}
}

func TestLoadStore(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := w.Submit(sampleReport(uint32(1+i), _t0.Add(time.Duration(i)*time.Minute))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	store, err := LoadStore(&buf, 10*time.Minute)
	if err != nil {
		t.Fatalf("LoadStore: %v", err)
	}
	if store.Len() != 40 {
		t.Errorf("loaded %d reports, want 40", store.Len())
	}
	if len(store.Epochs()) != 4 {
		t.Errorf("loaded %d epochs, want 4", len(store.Epochs()))
	}
}

// TestBinarySmallerThanJSON: the binary trace format exists to be
// compact, so it must encode the same reports in fewer bytes than one
// encoding/json object per line.
func TestBinarySmallerThanJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var bin, jsonl bytes.Buffer
	bw, err := NewWriter(&bin)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(&jsonl)
	for i := 0; i < 100; i++ {
		r := randomReport(rng)
		if err := bw.Submit(r); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= jsonl.Len() {
		t.Errorf("binary (%d B) not smaller than JSONL (%d B)", bin.Len(), jsonl.Len())
	}
}
