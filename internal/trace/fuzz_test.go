package trace

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/magellan-p2p/magellan/internal/faults"
)

// FuzzDecodeReport is the native fuzz target for the wire decoder. CI
// runs it in smoke mode (`go test -run Fuzz ./internal/trace`, seed
// corpus only); `go test -fuzz=FuzzDecodeReport ./internal/trace`
// explores from there. Beyond not panicking, DecodeReport and the slab
// decoder must agree with the reference decoder (the same report, or
// ErrCorrupt from all three), ReportTime must agree with DecodeReport
// (see checkDecodersAgree), and any accepted input must survive a
// re-encode/re-decode round trip unchanged — the property the epoch
// store relies on when it rewrites trace files.
func FuzzDecodeReport(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		r := randomReport(rng)
		f.Add(AppendReport(nil, &r))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	// Fault-shaped seeds: the injector's byte manglers produce exactly
	// the damage a lossy measurement network delivers, so start the
	// explorer in that neighbourhood.
	base := randomReport(rng)
	enc := AppendReport(nil, &base)
	f.Add(faults.TornTail(rng, enc))                            // truncated datagram
	f.Add(faults.DuplicateHead(enc, 16))                        // doubled header bytes
	f.Add(faults.FlipBits(rng, append([]byte(nil), enc...), 3)) // line noise
	zero := base
	zero.Partners = nil
	f.Add(AppendReport(nil, &zero))                       // zero-length partner list
	f.Add(faults.TornTail(rng, AppendReport(nil, &zero))) // and its torn variant
	f.Add(forgedChannelLength)                            // lengths the bytes cannot back
	f.Add(forgedPartnerCount())
	nan := base
	nan.DownKbps = math.NaN()
	f.Add(AppendReport(nil, &nan)) // a float no == accepts

	// One slab decoder across inputs, rewound every eighth input as a
	// stream worker rewinds its decoder before each epoch.
	var d Decoder
	inputs := 0
	f.Fuzz(func(t *testing.T, data []byte) {
		if inputs++; inputs%8 == 0 {
			d.Rewind()
		}
		checkDecodersAgree(t, &d, data)
		rep, err := DecodeReport(data)
		if err != nil {
			return
		}
		if len(rep.Partners) > MaxPartnersPerReport {
			t.Fatalf("decode accepted %d partners (max %d)", len(rep.Partners), MaxPartnersPerReport)
		}
		again, err := DecodeReport(AppendReport(nil, &rep))
		if err != nil {
			t.Fatalf("re-encode of accepted report does not decode: %v", err)
		}
		if !sameReport(rep, again) {
			t.Fatalf("round trip changed the report:\n first: %+v\nsecond: %+v", rep, again)
		}
	})
}

// TestDecodeReportNeverPanics feeds arbitrary bytes to the decoder — a
// trace server ingests datagrams from the open Internet, so the decoder
// must fail cleanly on anything.
func TestDecodeReportNeverPanics(t *testing.T) {
	prop := func(data []byte) bool {
		_, _ = DecodeReport(data)
		return true
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestDecodeMutatedPayloads flips bytes of valid encodings; every
// mutation must either decode to *something* structurally sane or fail —
// never panic, never loop.
func TestDecodeMutatedPayloads(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 500; trial++ {
		orig := randomReport(rng)
		buf := AppendReport(nil, &orig)
		// Flip 1-4 random bytes.
		for flips := 1 + rng.Intn(4); flips > 0; flips-- {
			buf[rng.Intn(len(buf))] ^= byte(1 << uint(rng.Intn(8)))
		}
		rep, err := DecodeReport(buf)
		if err != nil {
			continue
		}
		if len(rep.Partners) > MaxPartnersPerReport {
			t.Fatalf("mutated decode produced %d partners", len(rep.Partners))
		}
	}
}

// TestStoreConcurrentAccess hammers the store from writers and readers
// simultaneously; run with -race to verify the locking.
func TestStoreConcurrentAccess(t *testing.T) {
	store := NewStore(10 * time.Minute)
	var wg sync.WaitGroup
	const writers = 8
	const perWriter = 500
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r := sampleReport(uint32(1+w*perWriter+i), _t0.Add(time.Duration(i)*time.Minute))
				if err := store.Submit(r); err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				for _, e := range store.Epochs() {
					_ = store.Snapshot(e)
					_ = latestByPeer(store, e)
				}
			}
		}()
	}
	wg.Wait()
	readers.Wait()
	if store.Len() != writers*perWriter {
		t.Errorf("store holds %d reports, want %d", store.Len(), writers*perWriter)
	}
}

// TestServerManyClients runs several concurrent UDP clients against one
// server.
func TestServerManyClients(t *testing.T) {
	store := NewStore(10 * time.Minute)
	srv := startServer(t, store, FleetConfig{})

	const clients = 8
	const perClient = 100
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(srv.Addr().String())
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			defer cl.Close()
			for i := 0; i < perClient; i++ {
				r := sampleReport(uint32(1+c*perClient+i), _t0)
				if err := cl.Submit(r); err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				if i%25 == 24 {
					// Deployed clients jitter their send times; an
					// unthrottled 8-way blast is not the workload.
					time.Sleep(time.Millisecond)
				}
			}
		}(c)
	}
	wg.Wait()
	// Loopback UDP can in principle drop under burst; expect the vast
	// majority to land.
	waitFor(t, func() bool { return store.Len() >= clients*perClient*9/10 })
}
