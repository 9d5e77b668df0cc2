package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
)

// decodeReportReference is the reader-based decoder DecodeReport replaced:
// every field goes through a bytes.Reader, and a short read anywhere
// panics out to one recover. It is the oracle for DecodeReport's
// acceptance set — both accept exactly the same payloads, with the same
// result.
func decodeReportReference(data []byte) (out Report, err error) {
	br := bytes.NewReader(data)
	defer func() {
		if rec := recover(); rec != nil {
			ec, ok := rec.(referenceCorrupt)
			if !ok {
				panic(rec)
			}
			err = fmt.Errorf("%w: %v", ErrCorrupt, ec.err)
		}
	}()

	u := func() uint64 {
		v, uerr := binary.ReadUvarint(br)
		if uerr != nil {
			panic(referenceCorrupt{uerr})
		}
		return v
	}
	f64 := func() uint64 {
		var b [8]byte
		if _, ferr := io.ReadFull(br, b[:]); ferr != nil {
			panic(referenceCorrupt{ferr})
		}
		return binary.LittleEndian.Uint64(b[:])
	}
	f := func() float64 { return math.Float64frombits(f64()) }

	var r Report
	r.Time = time.Unix(0, int64(u())).UTC()
	r.Addr = isp.Addr(u())
	r.Port = uint16(u())
	n := u()
	if n > _maxRecordSize {
		return r, fmt.Errorf("%w: channel length %d", ErrCorrupt, n)
	}
	name := make([]byte, n)
	if _, rerr := io.ReadFull(br, name); rerr != nil {
		return r, fmt.Errorf("%w: channel bytes: %v", ErrCorrupt, rerr)
	}
	r.Channel = string(name)
	r.UpKbps, r.DownKbps = f(), f()
	r.RecvKbps, r.SentKbps = f(), f()
	r.BufferMap = f64()
	r.PlayPoint = uint32(u())
	np := u()
	if np > MaxPartnersPerReport {
		return r, fmt.Errorf("%w: %d partners", ErrCorrupt, np)
	}
	if np > 0 {
		r.Partners = make([]PartnerRecord, np)
	}
	for i := range r.Partners {
		r.Partners[i] = PartnerRecord{
			Addr:    isp.Addr(u()),
			Port:    uint16(u()),
			SentSeg: uint32(u()),
			RecvSeg: uint32(u()),
		}
	}
	if br.Len() != 0 {
		return r, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, br.Len())
	}
	return r, nil
}

type referenceCorrupt struct{ err error }

// checkDecodersAgree is the differential property: DecodeReport, the
// slab decoder d and the reference decoder return the same report, or
// all return ErrCorrupt. A partner list d cuts from its slab must end at
// its own length, so an append to it cannot reach the next report's
// partners. ReportTime, which core.AnalyzeStream routes a payload by
// before a worker decodes it, must give DecodeReport's time and its
// validation verdict on every payload DecodeReport accepts, and its
// error on every payload whose time field is malformed.
func checkDecodersAgree(t *testing.T, d *Decoder, data []byte) {
	t.Helper()
	got, err := DecodeReport(data)
	slab, slabErr := d.Decode(data)
	want, refErr := decodeReportReference(data)
	at, atErr := ReportTime(data)
	if _, n := binary.Uvarint(data); n <= 0 {
		if atErr == nil || err == nil || atErr.Error() != err.Error() {
			t.Fatalf("%x: malformed time field: ReportTime err %v, DecodeReport err %v", data, atErr, err)
		}
	} else if atErr != nil {
		t.Fatalf("%x: ReportTime rejected a well-formed time field: %v", data, atErr)
	}
	if err == nil {
		routed := got
		routed.Time = at
		if at != got.Time || fmt.Sprint(routed.Validate()) != fmt.Sprint(got.Validate()) {
			t.Fatalf("%x: ReportTime %v (validation %v), DecodeReport %v (validation %v)",
				data, at, routed.Validate(), got.Time, got.Validate())
		}
	}
	switch {
	case err != nil && refErr != nil && slabErr != nil:
		if !errors.Is(err, ErrCorrupt) || !errors.Is(refErr, ErrCorrupt) || !errors.Is(slabErr, ErrCorrupt) {
			t.Fatalf("%x: errors %v / slab %v / reference %v, want all ErrCorrupt", data, err, slabErr, refErr)
		}
	case err != nil || refErr != nil || slabErr != nil:
		t.Fatalf("%x: DecodeReport err %v, slab err %v, reference err %v", data, err, slabErr, refErr)
	case !sameReport(got, want):
		t.Fatalf("%x: decoders disagree:\n     got %+v\nreference %+v", data, got, want)
	case !sameReport(slab, want):
		t.Fatalf("%x: slab decoder disagrees:\n    slab %+v\nreference %+v", data, slab, want)
	case cap(slab.Partners) != len(slab.Partners):
		t.Fatalf("%x: slab partner list has cap %d, len %d", data, cap(slab.Partners), len(slab.Partners))
	}
}

// sameReport reports whether two decoded reports are identical, floats
// compared by their bits: reflect.DeepEqual calls a NaN unequal to itself,
// and a payload may carry any float bits. The encoding covers every field
// but the time's location and a nil versus empty partner list.
func sameReport(a, b Report) bool {
	return bytes.Equal(AppendReport(nil, &a), AppendReport(nil, &b)) &&
		a.Time.Location() == b.Time.Location() &&
		(a.Partners == nil) == (b.Partners == nil)
}

// forgedChannelLength is a 6-byte datagram — time, address and port of
// one byte each — declaring a channel name of 1 MiB − 1 bytes.
var forgedChannelLength = []byte{0x01, 0x01, 0x01, 0xff, 0xff, 0x3f}

// forgedPartnerCount is a complete report header declaring the maximum
// partner count and carrying no partner bytes.
func forgedPartnerCount() []byte {
	r := sampleReport(42, _t0)
	r.Partners = nil
	buf := AppendReport(nil, &r)
	return binary.AppendUvarint(buf[:len(buf)-1], MaxPartnersPerReport)
}

// bytesPerDecode measures the heap bytes one DecodeReport call allocates,
// on one P so no other goroutine's allocations are counted, in the manner
// of testing.AllocsPerRun.
func bytesPerDecode(data []byte) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 100
	_, _ = DecodeReport(data) // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_, _ = DecodeReport(data)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestDecodeReportForgedLengths: a length field must not make the decoder
// allocate more than the payload carries. An ingest server decodes
// datagrams from anyone, so a 6-byte datagram that declared a 1 MiB
// channel name used to cost 1 MiB per decode.
func TestDecodeReportForgedLengths(t *testing.T) {
	for name, data := range map[string][]byte{
		"channel_length": forgedChannelLength,
		"partner_count":  forgedPartnerCount(),
	} {
		if _, err := DecodeReport(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if b := bytesPerDecode(data); b >= 1024 {
			t.Errorf("%s: a %d-byte payload allocates %d bytes per decode, want < 1 KiB", name, len(data), b)
		}
	}
}

// TestDecodeReportAllocs pins DecodeReport's allocations for a
// well-formed report: the channel string and the partner list, nothing
// else (the reader-based decoder it replaced made nine).
func TestDecodeReportAllocs(t *testing.T) {
	r := randomReport(rand.New(rand.NewSource(5)))
	if r.Channel == "" || len(r.Partners) == 0 {
		t.Fatal("fixture report needs a channel and partners")
	}
	data := AppendReport(nil, &r)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeReport(data); err != nil {
			t.Fatal(err)
		}
	}); allocs != 2 {
		t.Errorf("DecodeReport allocates %.0f objects per report, want 2", allocs)
	}
}

// TestDecodeReportMatchesReference runs the differential property over
// valid reports, a random truncation and a one-bit flip of each, the
// forged-length datagrams, and both sides of the channel-length and
// partner-count limits; FuzzDecodeReport explores beyond.
func TestDecodeReportMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var d Decoder
	for i := 0; i < 200; i++ {
		r := randomReport(rng)
		data := AppendReport(nil, &r)
		checkDecodersAgree(t, &d, data)
		checkDecodersAgree(t, &d, data[:rng.Intn(len(data))])
		mutated := bytes.Clone(data)
		mutated[rng.Intn(len(mutated))] ^= byte(1 << rng.Intn(8))
		checkDecodersAgree(t, &d, mutated)
	}
	checkDecodersAgree(t, &d, forgedChannelLength)
	checkDecodersAgree(t, &d, forgedPartnerCount())
	checkDecodersAgree(t, &d, nil)

	r := randomReport(rng)
	for _, n := range []int{_maxRecordSize, _maxRecordSize + 1} {
		long := r
		long.Channel = strings.Repeat("x", n)
		checkDecodersAgree(t, &d, AppendReport(nil, &long))
	}
	for _, n := range []int{MaxPartnersPerReport, MaxPartnersPerReport + 1} {
		many := r
		many.Partners = make([]PartnerRecord, n)
		checkDecodersAgree(t, &d, AppendReport(nil, &many))
	}
}
