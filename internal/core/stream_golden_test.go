package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/trace"
)

// TestStreamGoldenEquivalence pins AnalyzeStream's full output on the
// clean and the faulty test traces to the digests the serial streaming
// analyzer produced before it had a worker pool, at several pool sizes.
func TestStreamGoldenEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name  string
		trace func(*testing.T) (*trace.Store, *isp.Database)
		want  string
	}{
		{"scaled", scaledTrace, "bb64432435863179e95f6935068d49821cea79086e3113ae259a3e2910cd790e"},
		{"fault", faultTrace, "fdcc3dafcda66b8e523e95ca6c8dc94f158019fa520912db8b72430015f16080"},
	} {
		store, db := tc.trace(t)
		raw := storeStream(t, store)
		for _, workers := range []int{1, 2, 7} {
			t.Run(fmt.Sprintf("%s/workers%d", tc.name, workers), func(t *testing.T) {
				cfg := goldenConfig()
				cfg.Workers = workers
				res, dropped, err := AnalyzeStream(newReader(t, bytes.NewReader(raw)), db, cfg, store.Interval())
				if err != nil {
					t.Fatalf("AnalyzeStream: %v", err)
				}
				if dropped != 0 {
					t.Errorf("dropped %d reports from an ordered stream", dropped)
				}
				sum := sha256.Sum256(encodeResults(res))
				if got := hex.EncodeToString(sum[:]); got != tc.want {
					t.Errorf("encoding sha256 = %s, want %s", got, tc.want)
				}
			})
		}
	}
}

// failingReader fails every read with err.
type failingReader struct{ err error }

func (r failingReader) Read([]byte) (int, error) { return 0, r.err }

// waitGoroutines waits for the goroutine count to fall back to base; a
// worker that has signalled its WaitGroup may take a moment to exit.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, %d before the call", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamErrorsStopWorkers checks both error paths of AnalyzeStream
// mid-stream — a report that fails validation when its epoch completes,
// and a failing source — at several pool sizes: the error is the one the
// serial analyzer returned and no worker outlives the call.
func TestStreamErrorsStopWorkers(t *testing.T) {
	store, db := scaledTrace(t)
	reports := storeReports(t, store)
	// An invalid report a third of the way in, followed by enough epochs
	// that its own epoch completes and the pool has work in flight.
	bad := len(reports) / 3
	invalid := append([]trace.Report(nil), reports...)
	invalid[bad].Channel = ""
	wantValidate := invalid[bad].Validate()
	if wantValidate == nil {
		t.Fatal("corrupted report still validates")
	}
	invalidRaw := encodeReports(t, invalid)
	goodRaw := encodeReports(t, reports[:bad])
	readErr := errors.New("disk on fire")

	for _, workers := range []int{1, 2, 7} {
		cfg := goldenConfig()
		cfg.Workers = workers
		t.Run(fmt.Sprintf("validate/workers%d", workers), func(t *testing.T) {
			base := runtime.NumGoroutine()
			_, _, err := AnalyzeStream(newReader(t, bytes.NewReader(invalidRaw)), db, cfg, store.Interval())
			if err == nil || err.Error() != wantValidate.Error() {
				t.Errorf("err = %v, want %v", err, wantValidate)
			}
			waitGoroutines(t, base)
		})
		t.Run(fmt.Sprintf("source/workers%d", workers), func(t *testing.T) {
			base := runtime.NumGoroutine()
			src := io.MultiReader(bytes.NewReader(goodRaw), failingReader{readErr})
			_, _, err := AnalyzeStream(newReader(t, src), db, cfg, store.Interval())
			if !errors.Is(err, readErr) || !strings.HasPrefix(err.Error(), "core: stream: ") {
				t.Errorf("err = %v, want %q wrapping %v", err, "core: stream: ", readErr)
			}
			waitGoroutines(t, base)
		})
	}
}
