package main

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"time"

	"github.com/magellan-p2p/magellan/internal/sim"
	"github.com/magellan-p2p/magellan/internal/trace"
)

// simSink counts the reports the simulator emits; traced, it also sums
// the time spent in the wrapped sink.
type simSink struct {
	inner trace.Sink
	timed bool
	n     uint64
	busy  time.Duration
}

func (s *simSink) Submit(r trace.Report) error {
	s.n++
	if !s.timed {
		return s.inner.Submit(r)
	}
	t0 := time.Now()
	err := s.inner.Submit(r)
	s.busy += time.Since(t0)
	return err
}

// runSim is sim-10k: sim.New then Run, with every report encoded by a
// trace.Writer into SHA-256. At full scale this is BENCH_7's
// sim_10k_peers_1h_virtual row (magellan-sim -seed 7 -concurrency 10000
// -duration 1h -flashcrowd=false), whose trace hash is pinned for seed 7.
// On any seed every pass must produce the same hash, and the sink must
// see exactly the reports the simulator counted.
func runSim(o opts) (*outcome, error) {
	out := newOutcome()
	var setups, runs, tracedRuns, allocs []float64
	var first string
	w := newWindow(o.seconds, o.minPasses())
	for pass := 0; w.more(pass); pass++ {
		traced := o.traced && pass%2 == 1
		h := sha256.New()
		tw, err := trace.NewWriter(h)
		if err != nil {
			return nil, err
		}
		sink := &simSink{inner: tw, timed: traced}
		cfg := sim.Config{
			Seed:            o.seed,
			Duration:        o.scale.simDuration,
			MeanConcurrency: o.scale.simPeers,
			ExtraChannels:   48,
			Shards:          1,
			Sink:            sink,
		}
		// Set up several times and keep the last; the median over every
		// construction is setup_s.
		var s *sim.Simulation
		for k := 0; k < setupReps; k++ {
			runtime.GC()
			t0 := time.Now()
			if s, err = sim.New(cfg); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		runtime.GC()
		c0 := readCounters()
		t0 := time.Now()
		if err := s.Run(); err != nil {
			return nil, err
		}
		run := time.Since(t0)
		c1 := readCounters()
		if err := tw.Flush(); err != nil {
			return nil, err
		}
		sum := hex.EncodeToString(h.Sum(nil))
		st := s.Stats()

		out.attempted++
		switch {
		case sink.n != st.Reports:
			out.fail("sim pass %d: sink saw %d reports, simulator counted %d", pass, sink.n, st.Reports)
		case o.scale.pinned && o.seed == simPinSeed && sum != simPinSHA:
			out.fail("sim pass %d: trace sha256 %s, pinned %s", pass, sum, simPinSHA)
		case first != "" && sum != first:
			out.fail("sim pass %d: trace sha256 %s differs from pass 0's %s", pass, sum, first)
		}
		if first == "" {
			first = sum
		}

		if !traced {
			runs = append(runs, ms(run))
			allocs = append(allocs, c1.allocMBSince(c0))
			continue
		}
		tracedRuns = append(tracedRuns, ms(run))
		out.add("sim.run_s", run.Seconds())
		out.add("sim.emit_s", sink.busy.Seconds())
		out.add("sim.self_s", (run - sink.busy).Seconds())
		out.add("sim.peer_vsec_per_s", st.PeerVirtualSeconds/run.Seconds())
		out.add("sim.gc_cpu_s", c1.gcCPU-c0.gcCPU)
		out.add("sim.alloc_mb", c1.allocMBSince(c0))
		out.add("sim.reports", float64(st.Reports))
		out.add("sim.joins", float64(st.Joins))
	}
	out.e2e["setup_s"] = median(setups)
	out.e2e["latency_p50_ms"] = median(runs)
	out.e2e["alloc_mb"] = median(allocs)
	if o.traced {
		out.add("sim.new_s", median(setups))
		out.add("trace_overhead_ms", median(tracedRuns)-median(runs))
	}
	return out, nil
}
