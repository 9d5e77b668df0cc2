package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/sim"
	"github.com/magellan-p2p/magellan/internal/trace"
)

// _seed7Fingerprint is the sealed fingerprint of seed7Trace.
const _seed7Fingerprint = "1799830619f6f41270ee8daba09cde9e7d39abc1219749b29ee008c068394fe9"

// seed7Trace simulates 2 virtual hours of 150 mean peers at seed 7 into
// a binary trace.
func seed7Trace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(sim.Config{Seed: 7, Duration: 2 * time.Hour, MeanConcurrency: 150, ExtraChannels: 2, Sink: w})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// syntheticTrace is 40 epochs of uneven size whose reports stray into
// the neighbouring epochs, where many peers report more than once (the
// later report supersedes the earlier) and many partner lists name
// address 0.
func syntheticTrace(t *testing.T) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	t0 := time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC)
	var reports []trace.Report
	for e := 0; e < 40; e++ {
		start := t0.Add(time.Duration(e) * trace.DefaultReportInterval)
		peers := 5 + (e*37)%150
		for i := 0; i < peers*5/4; i++ {
			r := trace.Report{
				Time:      start.Add(time.Duration(rng.Intn(840)-120) * time.Second),
				Addr:      isp.Addr(1 + rng.Intn(peers)),
				Port:      uint16(rng.Intn(65536)),
				Channel:   []string{"CCTV1", "CCTV4", "CH007"}[rng.Intn(3)],
				UpKbps:    rng.Float64() * 10000,
				DownKbps:  rng.Float64() * 10000,
				BufferMap: rng.Uint64(),
				PlayPoint: rng.Uint32(),
			}
			for k := rng.Intn(30); k > 0; k-- {
				p := trace.PartnerRecord{Addr: isp.Addr(rng.Intn(2 * peers)), SentSeg: rng.Uint32() % 500}
				r.Partners = append(r.Partners, p)
			}
			reports = append(reports, r)
		}
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if err := w.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadSealAnyCores: LoadStore and Seal give every epoch the columns
// that a map-based reference builds from the stream read report by
// report, and the fingerprint of the canonical encoding those columns
// define. CI runs it at -cpu 1,2,3,8: one, two, three and eight decode
// and seal workers must all agree, including eight workers over the
// seed-7 trace's three decode chunks and ten epochs.
func TestLoadSealAnyCores(t *testing.T) {
	for _, tc := range []struct {
		name string
		raw  []byte
		pin  string
	}{
		{"seed7", seed7Trace(t), _seed7Fingerprint},
		{"synthetic", syntheticTrace(t), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := trace.LoadStore(bytes.NewReader(tc.raw), 0)
			if err != nil {
				t.Fatal(err)
			}
			ix := store.Seal()
			arrivals := readEpochs(t, tc.raw)
			epochs := make([]int64, 0, len(arrivals))
			for e := range arrivals {
				epochs = append(epochs, e)
			}
			slices.Sort(epochs)
			if got := ix.Epochs(); !slices.Equal(got, epochs) {
				t.Fatalf("epochs %v, want %v", got, epochs)
			}

			fp := sha256.New()
			var scratch [2 * binary.MaxVarintLen64]byte
			n := binary.PutVarint(scratch[:], int64(trace.DefaultReportInterval))
			n += binary.PutUvarint(scratch[n:], uint64(len(epochs)))
			fp.Write(scratch[:n])
			for _, e := range epochs {
				if !sameReports(store.Snapshot(e).Reports, arrivals[e]) {
					t.Fatalf("epoch %d: the store's reports are not the stream's, in stream order", e)
				}
				reports, reporters, all := referenceColumns(arrivals[e])
				if !sameReports(ix.Reports(e), reports) {
					t.Errorf("epoch %d: Reports differ from the latest report of each peer in address order", e)
				}
				if !slices.Equal(ix.Reporters(e), reporters) {
					t.Errorf("epoch %d: Reporters %v, want %v", e, ix.Reporters(e), reporters)
				}
				if !slices.Equal(ix.AllPeers(e), all) {
					t.Errorf("epoch %d: AllPeers %v, want %v", e, ix.AllPeers(e), all)
				}
				n := binary.PutVarint(scratch[:], e)
				n += binary.PutUvarint(scratch[n:], uint64(len(reports)))
				fp.Write(scratch[:n])
				for k := range reports {
					buf := trace.AppendReport(nil, &reports[k])
					fp.Write(binary.AppendUvarint(nil, uint64(len(buf))))
					fp.Write(buf)
				}
			}
			got := ix.Fingerprint()
			if want := fp.Sum(nil); !bytes.Equal(got[:], want) {
				t.Errorf("Fingerprint %x, want %x", got, want)
			}
			if tc.pin != "" && hex.EncodeToString(got[:]) != tc.pin {
				t.Errorf("Fingerprint %x, pinned %s", got, tc.pin)
			}
		})
	}
}

// readEpochs reads the stream report by report and groups the reports
// by epoch, in stream order.
func readEpochs(t *testing.T, raw []byte) map[int64][]trace.Report {
	t.Helper()
	rd, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int64][]trace.Report)
	for {
		r, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		e := r.Time.UnixNano() / int64(trace.DefaultReportInterval)
		out[e] = append(out[e], r)
	}
}

// referenceColumns builds an epoch's columns with a map: the last report
// of each peer in address order, its addresses, and the sorted distinct
// addresses of the reporters and everyone on their partner lists.
func referenceColumns(arrivals []trace.Report) (reports []trace.Report, reporters, all []isp.Addr) {
	latest := make(map[isp.Addr]trace.Report)
	visible := make(map[isp.Addr]bool)
	for _, r := range arrivals {
		latest[r.Addr] = r
	}
	for a, r := range latest {
		reporters = append(reporters, a)
		visible[a] = true
		for _, p := range r.Partners {
			visible[p.Addr] = true
		}
	}
	slices.Sort(reporters)
	for _, a := range reporters {
		reports = append(reports, latest[a])
	}
	for a := range visible {
		all = append(all, a)
	}
	slices.Sort(all)
	return reports, reporters, all
}

// sameReports compares two report lists by their wire encodings.
func sameReports(a, b []trace.Report) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(trace.AppendReport(nil, &a[i]), trace.AppendReport(nil, &b[i])) {
			return false
		}
	}
	return true
}
