package trace

import (
	"sync"
	"testing"
	"time"
)

// TestStoreConcurrentIngest hammers one Store from writer goroutines
// (simulating the UDP receive loop fanning out bursts of reports) while
// reader goroutines concurrently take snapshots, list epochs, and
// collapse per-peer state — the exact concurrent shape of a live trace
// server with analyzers attached. Run under -race this gives the
// detector real interleavings to bite on; without -race it still checks
// that nothing ingested is lost or duplicated.
func TestStoreConcurrentIngest(t *testing.T) {
	const (
		writers          = 4
		reportsPerWriter = 150
		readers          = 2
	)
	s := NewStore(10 * time.Minute)

	var wg sync.WaitGroup
	stopReaders := make(chan struct{})

	// Readers: continuously observe while ingestion runs. Every view
	// must be internally consistent regardless of interleaving.
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				for _, e := range s.Epochs() {
					// Each accessor locks separately, so observe the
					// per-peer view first: reports only accumulate, so
					// the later snapshot must hold at least as many.
					latest := latestByPeer(s, e)
					snap := s.Snapshot(e)
					if snap.Epoch != e {
						t.Errorf("snapshot for epoch %d claims epoch %d", e, snap.Epoch)
						return
					}
					if len(latest) > len(snap.Reports) {
						t.Errorf("epoch %d: %d distinct peers but only %d reports",
							e, len(latest), len(snap.Reports))
						return
					}
				}
				s.Len()
				// Yield between scans: snapshot copies grow with the
				// store, and a reader that never lets go of the read
				// lock turns the race run into a slow-motion replay.
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}

	// Writers: each peer reports across several epochs, concurrently.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < reportsPerWriter; i++ {
				at := _t0.Add(time.Duration(i%7) * 10 * time.Minute)
				rep := sampleReport(uint32(1+w*reportsPerWriter+i), at)
				if err := s.Submit(rep); err != nil {
					t.Errorf("writer %d: submit: %v", w, err)
					return
				}
			}
		}(w)
	}

	// Wait for the writers, then release the readers.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	go func() {
		// Writers and readers share wg; stop readers once the total
		// count shows every writer has finished.
		for {
			if s.Len() >= writers*reportsPerWriter {
				close(stopReaders)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	<-done

	if got, want := s.Len(), writers*reportsPerWriter; got != want {
		t.Fatalf("stored %d reports, want %d", got, want)
	}
	total := 0
	for _, e := range s.Epochs() {
		total += len(s.Snapshot(e).Reports)
	}
	if total != writers*reportsPerWriter {
		t.Fatalf("snapshots hold %d reports in total, want %d", total, writers*reportsPerWriter)
	}
}
