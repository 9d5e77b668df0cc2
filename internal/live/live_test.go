package live_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/core"
	"github.com/magellan-p2p/magellan/internal/faults"
	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/live"
	"github.com/magellan-p2p/magellan/internal/sim"
	"github.com/magellan-p2p/magellan/internal/trace"
	"github.com/magellan-p2p/magellan/internal/workload"
)

// equivConfig is the analysis config both sides of the equivalence
// tests share: an explicit heavy cadence (batch and live must agree on
// which positions are heavy) and snapshot instants that exist in the
// short test trace (the online analyzer has no short-trace fallback).
func equivConfig() core.Config {
	return core.Config{
		Seed:        9,
		HeavyEveryN: 2,
		Snapshots: []core.SnapshotSpec{
			{Label: "early", Time: workload.TraceStart().Add(time.Hour)},
			{Label: "late", Time: workload.TraceStart().Add(2 * time.Hour)},
		},
	}
}

// observedSink hands each report its store accepted to observe, after
// the store accepted it — how magellan-sim's tee feeds the live plane.
type observedSink struct {
	store   *trace.Store
	observe func(r trace.Report)
}

func (o observedSink) Submit(r trace.Report) error {
	if err := o.store.Submit(r); err != nil {
		return err
	}
	o.observe(r)
	return nil
}

// runLiveSim simulates a short overlay with the given ingest shard
// count and faults, feeding a live analyzer through per-shard observed
// store sinks — the same subscription geometry the daemons use — and
// returns the analyzer, the per-shard stores for batch-side merging,
// and the run's ISP database.
func runLiveSim(t *testing.T, shards int, f faults.Config) (*live.Analyzer, []*trace.Store, *isp.Database) {
	t.Helper()
	// a is assigned after sim.New (it needs the run's ISP database) and
	// before s.Run submits the first report.
	var a *live.Analyzer
	stores := make([]*trace.Store, shards)
	sinks := make([]trace.Sink, shards)
	for i := range stores {
		stores[i] = trace.NewStore(0)
		sinks[i] = observedSink{stores[i], func(r trace.Report) { a.Observe(i, r) }}
	}
	cfg := sim.Config{
		Seed:            7,
		Duration:        3 * time.Hour,
		MeanConcurrency: 200,
		ExtraChannels:   2,
		Faults:          f,
	}
	if shards > 1 {
		cfg.ShardSinks = sinks
	} else {
		cfg.Sink = sinks[0]
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	a = live.New(live.Config{
		Shards:   shards,
		DB:       s.Database(),
		Analysis: equivConfig(),
	})
	if err := s.Run(); err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	return a, stores, s.Database()
}

// firstDiff reports the first diverging line of two canonical
// encodings, for actionable failure messages.
func firstDiff(t *testing.T, what string, a, b []byte) {
	t.Helper()
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			t.Errorf("%s: line %d differs:\n  live:  %s\n  batch: %s", what, i+1, la[i], lb[i])
			return
		}
	}
	t.Errorf("%s: encodings differ in length: %d vs %d lines", what, len(la), len(lb))
}

// TestLiveBatchEquivalence is the live plane's keystone: for every
// epoch the online analyzer closes, its canonical encoding must be
// byte-identical to the sealed-index batch oracle's — across shard
// counts, with and without seeded datagram loss.
func TestLiveBatchEquivalence(t *testing.T) {
	cases := []struct {
		shards int
		faults faults.Config
	}{
		{shards: 1},
		{shards: 2},
		{shards: 1, faults: faults.Config{Loss: 0.05}},
		{shards: 2, faults: faults.Config{Loss: 0.05}},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("shards=%d/loss=%v", tc.shards, tc.faults.Loss)
		t.Run(name, func(t *testing.T) {
			a, stores, db := runLiveSim(t, tc.shards, tc.faults)

			// Before the drain the watermark has closed a strict prefix:
			// at least one epoch over a 3h run, never the still-open tail.
			preDrain := a.Closed()
			if len(preDrain) == 0 {
				t.Fatal("watermark closed no epochs during the run")
			}
			if len(a.InFlight()) == 0 {
				t.Fatal("no epochs in flight at end of run (tail should still be open)")
			}
			a.Drain()
			closed := a.Closed()
			if len(closed) < len(preDrain) {
				t.Fatalf("Drain lost epochs: %d before, %d after", len(preDrain), len(closed))
			}
			for i, ce := range preDrain {
				if closed[i].Epoch != ce.Epoch {
					t.Fatalf("drain reordered closed epochs at %d: %d vs %d", i, closed[i].Epoch, ce.Epoch)
				}
			}

			merged := stores[0]
			if len(stores) > 1 {
				var err error
				merged, err = trace.MergeStores(stores...)
				if err != nil {
					t.Fatalf("MergeStores: %v", err)
				}
			}
			batch, err := core.BatchEpochMetrics(merged, db, equivConfig())
			if err != nil {
				t.Fatalf("BatchEpochMetrics: %v", err)
			}

			if len(closed) != len(batch) {
				t.Fatalf("epoch count: live closed %d, batch has %d", len(closed), len(batch))
			}
			var buf []byte
			for i, m := range batch {
				ce := closed[i]
				if ce.Epoch != m.Epoch {
					t.Fatalf("epoch order at %d: live %d, batch %d", i, ce.Epoch, m.Epoch)
				}
				buf = core.AppendCanonical(buf[:0], m)
				if !bytes.Equal(ce.Canonical, buf) {
					firstDiff(t, fmt.Sprintf("epoch %d", m.Epoch), ce.Canonical, buf)
					return
				}
			}
			if a.Stragglers() != 0 {
				t.Errorf("unexpected stragglers on an in-order run: %d", a.Stragglers())
			}
		})
	}
}

// TestLiveMeasurementOnly proves attaching the live plane cannot change
// the trace: two identically-seeded runs, one bare and one observed,
// must persist byte-identical reports.
func TestLiveMeasurementOnly(t *testing.T) {
	digest := func(observe bool) string {
		store := trace.NewStore(0)
		var a *live.Analyzer
		cfg := sim.Config{
			Seed:            11,
			Duration:        time.Hour,
			MeanConcurrency: 80,
			Sink:            store,
		}
		if observe {
			cfg.Sink = observedSink{store, func(r trace.Report) { a.Observe(0, r) }}
		}
		s, err := sim.New(cfg)
		if err != nil {
			t.Fatalf("sim.New: %v", err)
		}
		if observe {
			a = live.New(live.Config{Shards: 1, DB: s.Database()})
			defer a.Drain()
		}
		if err := s.Run(); err != nil {
			t.Fatalf("sim.Run: %v", err)
		}
		var b strings.Builder
		var buf []byte
		err = store.Range(func(_ int64, _ time.Time, reports []trace.Report) error {
			for i := range reports {
				buf = trace.AppendReport(buf[:0], &reports[i])
				b.Write(buf)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("store.Range: %v", err)
		}
		return b.String()
	}
	plain := digest(false)
	observed := digest(true)
	if plain != observed {
		t.Fatal("trace bytes changed when the live plane was attached")
	}
}

// TestWatermarkAndStragglers exercises the close rule directly: epoch e
// closes only once every shard has seen an epoch strictly after e, and
// reports arriving behind the closed frontier are dropped with
// accounting.
func TestWatermarkAndStragglers(t *testing.T) {
	a := live.New(live.Config{Shards: 2, Interval: time.Minute})
	rep := func(epoch int64, addr isp.Addr) trace.Report {
		return trace.Report{
			Time:    time.Unix(0, epoch*int64(time.Minute)).Add(time.Second),
			Addr:    addr,
			Channel: "CCTV1",
		}
	}

	a.Observe(0, rep(10, 1))
	a.Observe(0, rep(11, 2))
	if n := len(a.Closed()); n != 0 {
		t.Fatalf("epoch closed with shard 1 silent: %d closed", n)
	}
	a.Observe(1, rep(10, 3))
	if n := len(a.Closed()); n != 0 {
		t.Fatalf("epoch 10 closed at watermark 10 (needs strictly-greater): %d closed", n)
	}
	a.Observe(1, rep(11, 4))
	closed := a.Closed()
	if len(closed) != 1 || closed[0].Epoch != 10 {
		t.Fatalf("want epoch 10 closed, got %+v", closed)
	}
	if closed[0].Reports != 2 {
		t.Fatalf("epoch 10 closed with %d reports, want 2", closed[0].Reports)
	}

	// A report behind the frontier is a straggler; one for an open epoch
	// is not.
	a.Observe(0, rep(10, 5))
	a.Observe(0, rep(11, 6))
	if got := a.Stragglers(); got != 1 {
		t.Fatalf("stragglers = %d, want 1", got)
	}
	// An out-of-range shard index is dropped with accounting, never
	// honored into the watermark.
	a.Observe(7, rep(12, 7))
	if got := a.Stragglers(); got != 2 {
		t.Fatalf("stragglers after bad shard = %d, want 2", got)
	}

	a.Drain()
	closed = a.Closed()
	if len(closed) != 2 || closed[1].Epoch != 11 {
		t.Fatalf("after drain want epochs [10 11], got %+v", closed)
	}
	// Dedup: addr 2, 4, 6 reported into epoch 11 — 6 arrived after
	// nothing closed it, addr counts are distinct.
	if closed[1].Reports != 3 {
		t.Fatalf("epoch 11 closed with %d reports, want 3", closed[1].Reports)
	}
}

// TestLatestReportWins checks the dedup semantics match the sealed
// index: a peer reporting twice into one epoch keeps only the
// last-arrived report.
func TestLatestReportWins(t *testing.T) {
	a := live.New(live.Config{Shards: 1, Interval: time.Minute})
	r1 := trace.Report{Time: time.Unix(600, 0), Addr: 42, Channel: "CCTV1",
		Partners: []trace.PartnerRecord{{Addr: 7}, {Addr: 8}}}
	r2 := trace.Report{Time: time.Unix(601, 0), Addr: 42, Channel: "CCTV4",
		Partners: []trace.PartnerRecord{{Addr: 9}}}
	a.Observe(0, r1)
	a.Observe(0, r2)
	fl := a.InFlight()
	if len(fl) != 1 || fl[0].Peers != 1 || fl[0].Edges != 1 {
		t.Fatalf("in-flight after dedup = %+v, want 1 peer / 1 edge", fl)
	}
	a.Drain()
	closed := a.Closed()
	if len(closed) != 1 {
		t.Fatalf("want 1 closed epoch, got %d", len(closed))
	}
	m := closed[0].Metrics
	if _, ok := m.Quality["CCTV4"]; !ok {
		t.Fatalf("latest report (CCTV4) should win, got quality %v", m.Quality)
	}
	if _, ok := m.Quality["CCTV1"]; ok {
		t.Fatalf("superseded report (CCTV1) leaked into quality %v", m.Quality)
	}
}

// TestNilAnalyzerSafe pins the nil-receiver contract the daemons rely
// on to install hooks unconditionally.
func TestNilAnalyzerSafe(t *testing.T) {
	var a *live.Analyzer
	a.Observe(0, trace.Report{Addr: 1, Channel: "x", Time: time.Unix(1, 0)})
	a.Drain()
	if got := a.Closed(); got != nil {
		t.Fatalf("nil analyzer closed epochs: %v", got)
	}
	if got := a.InFlight(); got != nil {
		t.Fatalf("nil analyzer has in-flight epochs: %v", got)
	}
	if a.Stragglers() != 0 || a.Interval() != 0 {
		t.Fatal("nil analyzer accounting not zero")
	}
}
