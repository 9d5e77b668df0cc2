package core

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/allocguard"
	"github.com/magellan-p2p/magellan/internal/faults"
	"github.com/magellan-p2p/magellan/internal/graph"
	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/metrics"
	"github.com/magellan-p2p/magellan/internal/sim"
	"github.com/magellan-p2p/magellan/internal/trace"
	"github.com/magellan-p2p/magellan/internal/workload"
)

// encodeResults writes a canonical byte encoding of Results: every field
// in declaration order, map keys sorted, floats in exact hexadecimal so
// two encodings are equal iff every output bit is equal. This is the
// oracle for the determinism contract ("neither the worker count nor map
// iteration order can influence any output bit").
func encodeResults(res *Results) []byte {
	var b bytes.Buffer
	f := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	series := func(name string, s *metrics.Series) {
		if s == nil {
			fmt.Fprintf(&b, "%s nil\n", name)
			return
		}
		fmt.Fprintf(&b, "%s %d\n", name, s.Len())
		for _, p := range s.Points() {
			fmt.Fprintf(&b, " %d %s\n", p.T.UnixNano(), f(p.V))
		}
	}
	hist := func(name string, h *metrics.Histogram) {
		if h == nil {
			fmt.Fprintf(&b, "%s nil\n", name)
			return
		}
		fmt.Fprintf(&b, "%s n=%d\n", name, h.N())
		for _, bin := range h.PDF() {
			fmt.Fprintf(&b, " %d %s\n", bin.Value, f(bin.Frac))
		}
	}
	fit := func(name string, pf graph.PowerLawFit) {
		fmt.Fprintf(&b, "%s %s %d %s %d\n", name, f(pf.Alpha), pf.Xmin, f(pf.KS), pf.TailN)
	}

	fmt.Fprintf(&b, "interval %d epochs %d\n", res.Interval, res.EpochCount)

	pc := res.PeerCounts
	series("pc.total", pc.Total)
	series("pc.stable", pc.Stable)
	for _, d := range pc.Days {
		fmt.Fprintf(&b, "day %d %d %d\n", d.Day.UnixNano(), d.Total, d.Stable)
	}
	fmt.Fprintf(&b, "pc.means %s %s %s\n", f(pc.MeanStable), f(pc.MeanTotal), f(pc.StableShare))

	for _, p := range isp.All() {
		fmt.Fprintf(&b, "share %d %s\n", p, f(res.ISPShares.Shares[p]))
	}
	fmt.Fprintf(&b, "unknown %s\n", f(res.ISPShares.UnknownFrac))

	q := res.Quality
	fmt.Fprintf(&b, "quality bar=%s rate=%s\n", f(q.Bar), f(q.RateKbps))
	chans := make([]string, 0, len(q.ByChannel))
	for ch := range q.ByChannel {
		chans = append(chans, ch)
	}
	slices.Sort(chans)
	for _, ch := range chans {
		series("quality."+ch, q.ByChannel[ch])
		series("viewers."+ch, q.Viewers[ch])
	}

	for _, snap := range res.DegreeDist.Snapshots {
		fmt.Fprintf(&b, "snapshot %q %d\n", snap.Label, snap.Time.UnixNano())
		hist("partners", snap.Partners)
		hist("in", snap.In)
		hist("out", snap.Out)
		fit("partnersFit", snap.PartnersFit)
		fit("inFit", snap.InFit)
		fit("outFit", snap.OutFit)
	}

	series("deg.partners", res.DegreeEvolution.Partners)
	series("deg.in", res.DegreeEvolution.In)
	series("deg.out", res.DegreeEvolution.Out)

	series("intra.in", res.IntraISP.InFrac)
	series("intra.out", res.IntraISP.OutFrac)
	fmt.Fprintf(&b, "mixing %s\n", f(res.IntraISP.RandomMixing))

	sw := res.SmallWorld
	series("sw.c", sw.C)
	series("sw.l", sw.L)
	series("sw.crand", sw.CRand)
	series("sw.lrand", sw.LRand)
	fmt.Fprintf(&b, "sw.isp %d\n", sw.ISP)
	series("sw.cisp", sw.CISP)
	series("sw.lisp", sw.LISP)
	series("sw.crandisp", sw.CRandISP)
	series("sw.lrandisp", sw.LRandISP)

	series("rc.raw", res.Reciprocity.Raw)
	series("rc.all", res.Reciprocity.All)
	series("rc.intra", res.Reciprocity.Intra)
	series("rc.inter", res.Reciprocity.Inter)
	return b.Bytes()
}

func goldenConfig() Config {
	return Config{
		Seed: 5,
		Snapshots: []SnapshotSpec{
			{Label: "early", Time: workload.TraceStart().Add(2 * time.Hour)},
			{Label: "late", Time: workload.TraceStart().Add(5 * time.Hour)},
		},
	}
}

// firstDiff reports the first line where two encodings diverge, for
// actionable failure messages.
func firstDiff(t *testing.T, what string, a, b []byte) {
	t.Helper()
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			t.Errorf("%s: line %d differs:\n  a: %s\n  b: %s", what, i+1, la[i], lb[i])
			return
		}
	}
	t.Errorf("%s: encodings differ in length: %d vs %d lines", what, len(la), len(lb))
}

// TestAnalyzeGoldenEquivalence is the PR's keystone test: the canonical
// encoding of Analyze's output must be byte-identical across worker
// counts.
func TestAnalyzeGoldenEquivalence(t *testing.T) {
	store, db := scaledTrace(t)

	serial := goldenConfig()
	serial.Workers = 1
	parallel := goldenConfig()
	parallel.Workers = runtime.GOMAXPROCS(0)

	resSerial, err := Analyze(store, db, serial)
	if err != nil {
		t.Fatalf("Analyze(workers=1): %v", err)
	}
	resParallel, err := Analyze(store, db, parallel)
	if err != nil {
		t.Fatalf("Analyze(workers=%d): %v", parallel.Workers, err)
	}

	encSerial := encodeResults(resSerial)
	encParallel := encodeResults(resParallel)

	if len(encSerial) < 1000 {
		t.Fatalf("encoding suspiciously small (%d bytes); encoder broken?", len(encSerial))
	}
	if !bytes.Equal(encSerial, encParallel) {
		firstDiff(t, "workers=1 vs workers=N", encSerial, encParallel)
	}
}

// faultTrace builds a trace through the fault injector: same workload as
// scaledTrace but shorter, with 5% datagram loss and 5% duplication on
// the report path.
func faultTrace(t *testing.T) (*trace.Store, *isp.Database) {
	t.Helper()
	store := trace.NewStore(0)
	s, err := sim.New(sim.Config{
		Seed:            7,
		Duration:        4 * time.Hour,
		MeanConcurrency: 250,
		ExtraChannels:   4,
		Sink:            store,
		Faults:          faults.Config{Loss: 0.05, Duplicate: 0.05},
	})
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	if st := s.Stats(); st.Faults.Dropped == 0 || st.Faults.Duplicated == 0 {
		t.Fatalf("fault injector idle: %+v", st.Faults)
	}
	return store, s.Database()
}

// TestChaosAnalyzeGoldenEquivalence extends the determinism contract to
// faulty input: a trace with injected loss and duplication must still
// analyze to byte-identical output regardless of worker count. Dropped
// reports change *what* the analysis sees, never *how deterministically*
// it sees it.
func TestChaosAnalyzeGoldenEquivalence(t *testing.T) {
	store, db := faultTrace(t)

	serial := goldenConfig()
	serial.Workers = 1
	parallel := goldenConfig()
	parallel.Workers = runtime.GOMAXPROCS(0)

	resSerial, err := Analyze(store, db, serial)
	if err != nil {
		t.Fatalf("Analyze(workers=1): %v", err)
	}
	resParallel, err := Analyze(store, db, parallel)
	if err != nil {
		t.Fatalf("Analyze(workers=%d): %v", parallel.Workers, err)
	}

	encSerial := encodeResults(resSerial)
	encParallel := encodeResults(resParallel)
	if len(encSerial) < 1000 {
		t.Fatalf("encoding suspiciously small (%d bytes); encoder broken?", len(encSerial))
	}
	if !bytes.Equal(encSerial, encParallel) {
		firstDiff(t, "faulty trace, workers=1 vs workers=N", encSerial, encParallel)
	}
}

// TestNewEpochViewZeroAlloc pins the tentpole's core property: once the
// store is sealed, assembling an epoch view allocates nothing.
func TestNewEpochViewZeroAlloc(t *testing.T) {
	store, _ := scaledTrace(t)
	ix := store.Seal()
	epochs := ix.Epochs()
	e := epochs[len(epochs)/2]

	if allocs := testing.AllocsPerRun(100, func() {
		v := NewIndexedEpochView(ix, e)
		if v.StableCount() == 0 {
			t.Fatal("empty view")
		}
	}); allocs != 0 {
		t.Errorf("NewIndexedEpochView allocates %.0f objects per call, want 0", allocs)
	}

	// The store-level constructor hits the seal cache (the store has not
	// changed), so it must be allocation-free too.
	if allocs := testing.AllocsPerRun(100, func() {
		_ = NewEpochView(store, e)
	}); allocs != 0 {
		t.Errorf("NewEpochView on sealed store allocates %.0f objects per call, want 0", allocs)
	}
}

// TestGraphBuildAllocsBounded pins the per-epoch graph construction,
// counted exactly over every call: once the builder's scratch and the
// arenas are warm, the active build, its cut to the stable graph and the
// Netcom subgraph's remap allocate nothing, and a build into a fresh
// Digraph costs only that graph's own arrays — independent of how many
// epochs have been processed before.
func TestGraphBuildAllocsBounded(t *testing.T) {
	store, db := scaledTrace(t)
	ix := store.Seal()
	epochs := ix.Epochs()
	v := NewIndexedEpochView(ix, epochs[len(epochs)/2])

	b := graph.NewCSRBuilder()
	var g, sub graph.Digraph
	var ends []int32
	active := func(dst *graph.Digraph) *graph.Digraph {
		return v.activeGraphInto(b, dst, DefaultActiveThreshold, &ends)
	}
	isps := make([]isp.ISP, active(&g).N())
	for i := range isps {
		isps[i] = db.Lookup(g.Addr(int32(i)))
	}
	netcom := func(i int32) bool { return isps[i] == isp.ChinaNetcom }
	sg := active(&g).KeepPrefix(v.StableCount())
	if sg.InducedSubgraphInto(&sub, netcom).N() == 0 {
		t.Fatal("empty Netcom subgraph")
	}

	const runs = 50
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"active build", func() { active(&g) }},
		{"active build and prefix cut", func() { active(&g).KeepPrefix(v.StableCount()) }},
		{"Netcom remap", func() {
			active(&g).KeepPrefix(v.StableCount()).InducedSubgraphInto(&sub, netcom)
		}},
	} {
		if n := allocguard.Count(runs, c.f); n != 0 {
			t.Errorf("%s allocates %d objects over %d calls into warm arenas, want 0", c.name, n, runs)
		}
	}
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"active build", func() { active(new(graph.Digraph)) }},
		{"Netcom remap", func() { sg.InducedSubgraphInto(new(graph.Digraph), netcom) }},
	} {
		if n := allocguard.Count(runs, c.f); n > 12*runs {
			t.Errorf("%s allocates %d objects over %d calls into a fresh Digraph with warm scratch, want <= 12 per call", c.name, n, runs)
		}
	}
}

// TestKernelWarmAllocs pins the warm per-epoch kernel to the metrics it
// returns: once a worker's scratch has seen every epoch of the trace, a
// heavy or light epoch allocates only the EpochMetrics and its two maps
// (≤ 5 objects), with every graph, column, baseline and the RNG reused.
// The count is summed over every run, and the metrics take all 5, so one
// stray allocation in any run pushes the sum past the bound.
func TestKernelWarmAllocs(t *testing.T) {
	store, db := scaledTrace(t)
	ix := store.Seal()
	// No snapshot instants: a Fig. 4 snapshot is output, not scratch.
	k := onlineKernel(ix.Interval(), db, Config{Seed: 1, Snapshots: []SnapshotSpec{}})
	sc := newEpochScratch()
	epochs := ix.Epochs()
	for pos, e := range epochs {
		k.run(NewIndexedEpochView(ix, e), pos, sc)
	}
	v := NewIndexedEpochView(ix, epochs[len(epochs)/2])
	const runs = 50
	for _, c := range []struct {
		name string
		pos  int
	}{{"heavy", 0}, {"light", 1}} {
		n := allocguard.Count(runs, func() {
			if m := k.run(v, c.pos, sc); m.Heavy != (c.pos == 0) {
				t.Fatalf("pos %d: Heavy = %v", c.pos, m.Heavy)
			}
		})
		if n > 5*runs {
			t.Errorf("warm %s epochs allocate %d objects over %d runs, want <= 5 per run (the EpochMetrics and its two maps)",
				c.name, n, runs)
		}
	}
}

// TestBatchEpochMetricsFoldsNoDays: the live analyzer's oracle reads no
// day counts, so its pool folds no Fig. 1B day sets, and its epochs
// encode exactly as those of a pool that does fold them.
func TestBatchEpochMetricsFoldsNoDays(t *testing.T) {
	store, db := scaledTrace(t)
	cfg := Config{Seed: 3, Workers: 2}
	outs, err := BatchEpochMetrics(store, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix := store.Seal()
	folded, foldedScratches := runSealed(ix, onlineKernel(ix.Interval(), db, cfg), true)
	_, scratches := runSealed(ix, onlineKernel(ix.Interval(), db, cfg), false)
	for w, sc := range scratches {
		if len(sc.days) != 0 {
			t.Errorf("worker %d holds %d day sets, want none", w, len(sc.days))
		}
	}
	if len(foldedScratches[0].days)+len(foldedScratches[1].days) == 0 {
		t.Fatal("the folding pool folded no day sets")
	}
	if len(outs) != len(folded) {
		t.Fatalf("%d epochs, the folding pool %d", len(outs), len(folded))
	}
	for i := range outs {
		if !bytes.Equal(AppendCanonical(nil, outs[i]), AppendCanonical(nil, folded[i])) {
			t.Errorf("epoch %d encodes differently from the folding pool's", outs[i].Epoch)
		}
	}
}
