package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"github.com/magellan-p2p/magellan/internal/core"
	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/metrics"
	"github.com/magellan-p2p/magellan/internal/obs"
	"github.com/magellan-p2p/magellan/internal/report"
	"github.com/magellan-p2p/magellan/internal/trace"
)

// runAnalyze is analyze-36h. One operation is one analysis of the cached
// trace bytes by both drivers: LoadStore, the first Seal and core.Analyze
// (batch), then core.AnalyzeStream over the same bytes. Every pass loads
// a fresh store, because Seal caches its index until the next Submit.
//
// Checks: the sealed fingerprint equals the input's, AnalyzeStream drops
// nothing, the batch and streaming results agree on every series the
// small-world cadence and snapshot choice cannot affect, and the
// report.RenderAll digest of the batch result is the pinned one for the
// default seed (on other seeds, the same on every pass).
func runAnalyze(o opts) (*outcome, error) {
	in, err := loadInput(o.cacheDir, o.inputSpec(), o.inputPin())
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	var setups, ops, tracedOps, allocs []float64
	var firstRender string
	w := newWindow(o.seconds, o.minPasses())
	for pass := 0; w.more(pass); pass++ {
		traced := o.traced && pass%2 == 1
		bcfg := core.Config{Seed: o.seed, Workers: runtime.GOMAXPROCS(0)}
		scfg := core.Config{Seed: o.seed}
		bprof, sprof := obs.NewStageProfile(), obs.NewStageProfile()
		if traced {
			bcfg.Tracer, scfg.Tracer = bprof, sprof
		}

		for k := 0; k < setupReps; k++ {
			t0 := time.Now()
			if _, err := isp.ReadDatabase(bytes.NewReader(in.dbRaw)); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}

		runtime.GC()
		c0 := readCounters()
		t0 := time.Now()
		store, err := trace.LoadStore(bytes.NewReader(in.raw), 0)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		ix := store.Seal()
		t2 := time.Now()
		res, err := core.Analyze(store, in.db, bcfg)
		if err != nil {
			return nil, err
		}
		t3 := time.Now()
		rd, err := trace.NewReader(bytes.NewReader(in.raw))
		if err != nil {
			return nil, err
		}
		sres, drops, err := core.AnalyzeStream(rd, in.db, scfg, 0)
		if err != nil {
			return nil, err
		}
		t4 := time.Now()
		c1 := readCounters()

		out.attempted++
		var render bytes.Buffer
		if err := report.RenderAll(&render, res); err != nil {
			return nil, err
		}
		rsum := sha256.Sum256(render.Bytes())
		rhex := hex.EncodeToString(rsum[:])
		switch {
		case ix.Fingerprint() != in.fp:
			out.fail("analyze pass %d: sealed fingerprint differs from the input's", pass)
		case drops != 0:
			out.fail("analyze pass %d: AnalyzeStream dropped %d reports", pass, drops)
		case o.scale.pinned && o.seed == inputPinSeed && rhex != analyzePinRender:
			out.fail("analyze pass %d: RenderAll sha256 %s, pinned %s", pass, rhex, analyzePinRender)
		case firstRender != "" && rhex != firstRender:
			out.fail("analyze pass %d: RenderAll sha256 %s differs from pass 0's %s", pass, rhex, firstRender)
		default:
			if err := crossCheck(res, sres); err != nil {
				out.fail("analyze pass %d: %v", pass, err)
			}
		}
		if firstRender == "" {
			firstRender = rhex
		}

		batch, stream := t3.Sub(t0), t4.Sub(t3)
		if !traced {
			ops = append(ops, ms(batch+stream))
			allocs = append(allocs, c1.allocMBSince(c0))
			continue
		}
		tracedOps = append(tracedOps, ms(batch+stream))
		out.add("analyze.batch_s", batch.Seconds())
		out.add("analyze.stream_s", stream.Seconds())
		out.add("trace.decode_s", t1.Sub(t0).Seconds())
		out.add("trace.seal_s", t2.Sub(t1).Seconds())
		out.add("core.analyze_s", t3.Sub(t2).Seconds())
		addStages(out, "core.batch.", bprof, kernelStages, true)
		kernel := addStages(out, "core.stream.", sprof, kernelStages, true)
		out.add("core.stream.other_s", (stream - kernel).Seconds())
	}
	out.e2e["setup_s"] = median(setups)
	out.e2e["latency_p50_ms"] = median(ops)
	out.e2e["alloc_mb"] = median(allocs)
	if o.traced {
		out.add("trace_overhead_ms", median(tracedOps)-median(ops))
	}
	return out, nil
}

// addStages records each stage's busy time (summed over workers) and,
// withAlloc, its allocation, under prefix; it returns the total busy time.
func addStages(out *outcome, prefix string, p *obs.StageProfile, stages []string, withAlloc bool) time.Duration {
	stats := make(map[string]obs.StageStats)
	for _, s := range p.Stats() {
		stats[s.Stage] = s
	}
	var total time.Duration
	for _, st := range stages {
		s := stats[st]
		total += s.Wall
		out.add(prefix+st+"_s", s.Wall.Seconds())
		if withAlloc {
			out.add(prefix+st+"_alloc_mb", float64(s.AllocBytes)/(1<<20))
		}
	}
	return total
}

// crossCheck compares the batch and streaming results on every per-epoch
// series that depends only on the reports: population, degrees and
// reciprocity. Small-world points (cadence) and degree snapshots
// (fallback instants) legitimately differ between the drivers.
func crossCheck(batch, stream *core.Results) error {
	if batch.EpochCount != stream.EpochCount {
		return fmt.Errorf("batch saw %d epochs, stream %d", batch.EpochCount, stream.EpochCount)
	}
	pairs := []struct {
		name string
		b, s *metrics.Series
	}{
		{"peers total", batch.PeerCounts.Total, stream.PeerCounts.Total},
		{"peers stable", batch.PeerCounts.Stable, stream.PeerCounts.Stable},
		{"mean partners", batch.DegreeEvolution.Partners, stream.DegreeEvolution.Partners},
		{"mean indegree", batch.DegreeEvolution.In, stream.DegreeEvolution.In},
		{"mean outdegree", batch.DegreeEvolution.Out, stream.DegreeEvolution.Out},
		{"reciprocity", batch.Reciprocity.All, stream.Reciprocity.All},
	}
	samePoint := func(x, y metrics.Point) bool {
		return x.T.Equal(y.T) && math.Float64bits(x.V) == math.Float64bits(y.V)
	}
	for _, p := range pairs {
		if !slices.EqualFunc(p.b.Points(), p.s.Points(), samePoint) {
			return fmt.Errorf("batch and stream disagree on %s", p.name)
		}
	}
	if !slices.Equal(batch.PeerCounts.Days, stream.PeerCounts.Days) {
		return fmt.Errorf("batch and stream disagree on daily distinct peers")
	}
	return nil
}
