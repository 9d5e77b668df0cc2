package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"github.com/magellan-p2p/magellan/internal/graph"
	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/metrics"
	"github.com/magellan-p2p/magellan/internal/obs"
	"github.com/magellan-p2p/magellan/internal/radix"
	"github.com/magellan-p2p/magellan/internal/trace"
	"github.com/magellan-p2p/magellan/internal/workload"
)

// SnapshotSpec names an instant whose degree distributions Fig. 4 plots.
type SnapshotSpec struct {
	Label string
	Time  time.Time
}

// DefaultSnapshots returns the four Fig. 4 snapshots adapted to the
// trace window: 9 am / 9 pm on an ordinary day (Tuesday Oct 3) and on
// the flash-crowd day (Friday Oct 6). The paper uses Sep 24 as its
// ordinary day, which falls before the published two-week window.
func DefaultSnapshots() []SnapshotSpec {
	mk := func(day, hour int) time.Time {
		return time.Date(2006, 10, day, hour, 0, 0, 0, workload.Beijing)
	}
	return []SnapshotSpec{
		{Label: "9am 10/03", Time: mk(3, 9)},
		{Label: "9pm 10/03", Time: mk(3, 21)},
		{Label: "9am 10/06", Time: mk(6, 9)},
		{Label: "9pm 10/06", Time: mk(6, 21)},
	}
}

// Config tunes the analysis pipeline.
type Config struct {
	// ActiveThreshold is the active-partner segment cutoff (default 10).
	ActiveThreshold uint32
	// Seed drives the random baselines and BFS sampling.
	Seed int64
	// HeavyEveryN computes the small-world metrics on every Nth epoch
	// (they are quadratic-ish); 0 picks a cadence that yields ≈ 240
	// computed points for Analyze, and streamingHeavyEveryN for the
	// drivers that cannot know the epoch count up front (see sanitize).
	HeavyEveryN int
	// Snapshots are the Fig. 4 instants; nil means DefaultSnapshots
	// (instants outside the trace are skipped).
	Snapshots []SnapshotSpec
	// Workers bounds pipeline parallelism (default GOMAXPROCS).
	Workers int
	// Tracer receives spans for the pipeline's stages (seal, epoch
	// scans, graph kernels, assembly). nil means obs.Nop, which costs
	// nothing and records nothing. Tracing is measurement-only: results
	// are byte-identical with any tracer attached.
	Tracer obs.Tracer
	// Journal, when non-nil, records one analysis-consumption event per
	// epoch — the last hop of a report's lifecycle. Events are recorded
	// after the worker pool drains, in ascending epoch order and stamped
	// with epoch start time, so the journal stays deterministic no matter
	// how the workers interleaved. Measurement-only: results are
	// byte-identical with a journal attached.
	Journal *obs.Journal
}

// The figures' fixed inputs: the Fig. 3 channels and the served-rate
// fraction of workload.StreamRateKbps a report must reach to count as
// good quality, the ISP of the Fig. 7B subgraph, and the cap on BFS
// sources for path-length estimation (graphs smaller than the cap are
// measured exactly).
var _qualityChannels = [...]string{"CCTV1", "CCTV4"}

const (
	_qualityBar  = 0.9
	_ispFocus    = isp.ChinaNetcom
	_pathSamples = 64
)

// streamingHeavyEveryN is the small-world cadence of the online policy,
// used when Config leaves HeavyEveryN unset and the epoch count is
// unknown: the batch default scales with the epoch count, which no
// single-pass or live analyzer knows up front.
const streamingHeavyEveryN = 6

// sanitize defaults every unset knob. epochCount feeds the HeavyEveryN
// default; 0 means the epoch count is unknown, which picks the streaming
// cadence. Whichever driver runs an epoch, the one at send or close
// position i is heavy iff i % HeavyEveryN == 0.
func (c Config) sanitize(epochCount int) Config {
	if c.ActiveThreshold == 0 {
		c.ActiveThreshold = DefaultActiveThreshold
	}
	if c.HeavyEveryN <= 0 {
		c.HeavyEveryN = streamingHeavyEveryN
		if epochCount > 0 {
			c.HeavyEveryN = max(epochCount/240, 1)
		}
	}
	if c.Snapshots == nil {
		c.Snapshots = DefaultSnapshots()
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	c.Tracer = obs.TracerOrNop(c.Tracer)
	return c
}

// epochStartOf returns the instant an epoch begins, in UTC.
func epochStartOf(interval time.Duration, epoch int64) time.Time {
	return time.Unix(0, epoch*int64(interval)).UTC()
}

// snapshotLabels maps each spec's epoch (instant over interval) to its
// label — the lookup the kernel keys Fig. 4 snapshot production on.
// Later specs mapping to the same epoch win, matching the historical
// map-build order.
func snapshotLabels(interval time.Duration, specs []SnapshotSpec) map[int64]string {
	m := make(map[int64]string, len(specs))
	for _, spec := range specs {
		m[spec.Time.UnixNano()/int64(interval)] = spec.Label
	}
	return m
}

// fallbackSnapshots picks four spread-out epochs (≈ 20/40/60/95 % through
// the trace) and labels them by their local time, so short traces still
// produce Fig. 4 panels.
func fallbackSnapshots(interval time.Duration, epochs []int64) []SnapshotSpec {
	if len(epochs) == 0 {
		return nil
	}
	fracs := []float64{0.2, 0.4, 0.6, 0.95}
	seen := make(map[int64]struct{}, len(fracs))
	var out []SnapshotSpec
	for _, f := range fracs {
		i := int(f * float64(len(epochs)-1))
		e := epochs[i]
		if _, dup := seen[e]; dup {
			continue
		}
		seen[e] = struct{}{}
		start := epochStartOf(interval, e)
		out = append(out, SnapshotSpec{
			Label: start.In(workload.Beijing).Format("15:04 01/02"),
			Time:  start,
		})
	}
	return out
}

// resolveSnapshots maps the configured snapshot instants onto the epochs
// actually present. If none of the configured instants fall inside the
// trace (short runs), it falls back to four spread-out epochs so Fig. 4
// is never empty. Only Analyze applies it: the fallback needs the whole
// epoch list, which no online analyzer has.
func resolveSnapshots(interval time.Duration, epochs []int64, specs []SnapshotSpec) []SnapshotSpec {
	present := make(map[int64]struct{}, len(epochs))
	for _, e := range epochs {
		present[e] = struct{}{}
	}
	for _, spec := range specs {
		if _, ok := present[spec.Time.UnixNano()/int64(interval)]; ok {
			return specs
		}
	}
	return fallbackSnapshots(interval, epochs)
}

// EpochMetrics is one epoch's computed topology metrics — the per-epoch
// unit every figure aggregates over, and the unit the streaming analyzer
// reconciles against the batch pipeline (see AppendCanonical). Exported
// fields mirror the figures: population (Fig. 1), ISP mix (Fig. 2),
// quality (Fig. 3), degree snapshot and means (Figs. 4–5), intra-ISP
// fractions (Fig. 6), small-world metrics (Fig. 7), reciprocity (Fig. 8).
type EpochMetrics struct {
	Epoch int64
	Start time.Time

	Total  int
	Stable int

	ISPCounts map[isp.ISP]int
	Unknown   int

	Quality map[string][2]int // channel → (served, reporters)

	DegPartners, DegIn, DegOut float64

	IntraIn, IntraOut float64 // NaN when undefined

	Heavy              bool
	C, L, CRand, LRand float64
	CISP, LISP         float64
	CRandISP, LRandISP float64
	ISPGraphOK         bool

	RawR, RhoAll, RhoIntra, RhoInter float64

	Snapshot *DegreeSnapshot
}

// epochScratch is the per-worker reusable state: the graph builder
// whose index map and edge arrays survive from epoch to epoch, the graph
// arenas the kernel builds each epoch's graphs into, the epoch's node
// columns, the random-baseline scratch, the RNG each heavy epoch
// re-seeds, the decoder and column builder for stream epochs, and the
// worker's shard of the Fig. 1B day-distinct fold (merged after the pool
// drains, so no lock serializes the hot loop). One scratch serves any
// number of sequential epochs; concurrent workers need one each.
type epochScratch struct {
	build  *graph.CSRBuilder
	snap   graph.Digraph // the active graph, cut to the stable graph on a heavy epoch
	sub    graph.Digraph // the stable graph's Fig. 7B subgraph
	ends   []int32       // the node of each active partner entry, in scan order
	isps   []isp.ISP     // each active-graph node's ISP, by node index
	random graph.RandomScratch
	rng    *rand.Rand
	dec    trace.Decoder // its partner slabs back the columns' reports
	cols   *trace.EpochColumns
	days   []daySets  // one per trace day the worker has seen, in first-seen order
	sort   []isp.Addr // radix scratch of the day buffers
}

func newEpochScratch() *epochScratch {
	return &epochScratch{
		build: graph.NewCSRBuilder(),
		cols:  trace.NewEpochColumns(),
	}
}

// seeded returns the worker's RNG seeded with seed. The first call
// creates it, so building a scratch, part of every runner's setup, does
// not seed a source that no epoch may draw from.
func (sc *epochScratch) seeded(seed int64) *rand.Rand {
	if sc.rng == nil {
		sc.rng = rand.New(rand.NewSource(seed))
	} else {
		sc.rng.Seed(seed)
	}
	return sc.rng
}

// Analyze runs the full pipeline over a trace store. The returned Results
// are deterministic for a given (store, db, cfg): neither the worker
// count nor map iteration order can influence any output bit.
func Analyze(store *trace.Store, db *isp.Database, cfg Config) (*Results, error) {
	sp := obs.TracerOrNop(cfg.Tracer).Start("seal")
	ix := store.Seal()
	sp.End()
	epochs := ix.Epochs()
	if len(epochs) == 0 {
		return nil, fmt.Errorf("core: trace store is empty")
	}
	cfg = cfg.sanitize(len(epochs))
	specs := resolveSnapshots(ix.Interval(), epochs, cfg.Snapshots)

	epochsSpan := cfg.Tracer.Start("epochs")
	outs, scratches := runSealed(ix, &kernel{ix.Interval(), db, cfg, snapshotLabels(ix.Interval(), specs)}, true)
	epochsSpan.End()

	// Flight recorder: the consumption events are recorded only now, from
	// this single-threaded path in ascending epoch order — never from the
	// workers, whose interleaving would leak scheduling into the journal.
	for _, m := range outs {
		cfg.Journal.Record(m.Start.UnixNano(), obs.StageAnalyze, obs.VerdictConsumed,
			obs.ReportID{Epoch: m.Epoch})
	}

	days := mergeDays(cfg.Tracer, scratches)
	sp = cfg.Tracer.Start("assemble")
	defer sp.End()
	return assemble(ix.Interval(), cfg, specs, outs, days)
}

// daySets accumulates one trace day's distinct addresses: every visible
// peer's in sets[0], the reporters' in sets[1].
type daySets struct {
	key  int64 // the day's local midnight, in Unix seconds
	sets [2]dayAddrs
}

// dayAddrs collects the distinct addresses of one day without a map:
// each epoch's sorted column is appended, and whenever the buffer
// reaches twice its length after the last compaction it is radix-sorted
// and compacted, so it holds at most about twice the day's distinct
// count plus one epoch's column.
type dayAddrs struct {
	addrs []isp.Addr
	kept  int // len(addrs) after the last compaction
}

func (d *dayAddrs) add(col []isp.Addr, scratch *[]isp.Addr) {
	d.addrs = append(reserve(d.addrs, len(col)), col...)
	if len(d.addrs) >= 2*d.kept {
		d.addrs = compactAddrs(d.addrs, scratch)
		d.kept = len(d.addrs)
	}
}

// compactAddrs sorts and deduplicates s in its own array. radix.Sort may
// leave the keys in the scratch array and hand s's array back as the
// scratch; they are then copied home, so the scratch keeps the larger
// array and the buffers one worker compacts through it never trade
// arrays.
func compactAddrs(s []isp.Addr, scratch *[]isp.Addr) []isp.Addr {
	if sorted := radix.Sort(s, scratch); len(s) > 0 && &sorted[0] != &s[0] {
		copy(s, sorted)
		*scratch = sorted[:0]
	}
	return slices.Compact(s)
}

// reserve returns s with room for n more elements. An array too short is
// replaced by one of twice its capacity, or of the length needed if that
// is more, so a buffer that starts empty every pass regrows O(log n)
// times and allocates about twice its final size, not the five times
// append's gentler growth of long slices costs.
func reserve[T any](s []T, n int) []T {
	if need := len(s) + n; need > cap(s) {
		return append(make([]T, 0, max(need, 2*cap(s))), s...)
	}
	return s
}

// foldDay adds one epoch's populations to its trace day's distinct sets.
func (sc *epochScratch) foldDay(v EpochView) {
	local := v.Start.In(workload.Beijing)
	key := time.Date(local.Year(), local.Month(), local.Day(), 0, 0, 0, 0, workload.Beijing).Unix()
	ds := sc.day(key)
	if ds == nil {
		sc.days = append(sc.days, daySets{key: key})
		ds = &sc.days[len(sc.days)-1]
	}
	ds.sets[0].add(v.AllPeers(), &sc.sort)
	ds.sets[1].add(v.Reporters(), &sc.sort)
}

// day returns the worker's sets for a day, or nil. Epochs reach a worker
// in ascending order, so the day is almost always the last one.
func (sc *epochScratch) day(key int64) *daySets {
	for i := len(sc.days) - 1; i >= 0; i-- {
		if sc.days[i].key == key {
			return &sc.days[i]
		}
	}
	return nil
}

// mergeDays counts each day's distinct addresses over every worker's
// shard: it concatenates the shards' buffers for the day and compacts
// them once. Union commutes, so shard order cannot leak into the counts,
// which come out in day order.
func mergeDays(tr obs.Tracer, scratches []*epochScratch) []DayCount {
	sp := tr.Start("merge_days")
	defer sp.End()
	var keys []int64
	for _, sc := range scratches {
		for i := range sc.days {
			keys = append(keys, sc.days[i].key)
		}
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	days := make([]DayCount, len(keys))
	var buf, scratch []isp.Addr
	for i, k := range keys {
		var n [2]int // the day's distinct total and stable counts
		for s := range n {
			buf = buf[:0]
			for _, sc := range scratches {
				if ds := sc.day(k); ds != nil {
					buf = append(reserve(buf, len(ds.sets[s].addrs)), ds.sets[s].addrs...)
				}
			}
			n[s] = len(compactAddrs(buf, &scratch))
		}
		days[i] = DayCount{Day: time.Unix(k, 0).In(workload.Beijing), Total: n[0], Stable: n[1]}
	}
	return days
}

// run computes everything the figures need from the snapshot at send or
// close position pos. It is the shared per-epoch kernel: every driver —
// the sealed-index pool, the single-pass stream, and the live analyzer's
// EpochRunner — calls exactly this function, which is why their per-epoch
// outputs can be byte-compared. A heavy epoch re-seeds the worker's RNG
// from (cfg.Seed, v.Epoch) alone, so one epoch's result is independent
// of every other epoch. The graphs live in sc's arenas, so a warm
// scratch allocates only the returned metrics.
func (k *kernel) run(v EpochView, pos int, sc *epochScratch) *EpochMetrics {
	db, cfg := k.db, k.cfg
	thr := cfg.ActiveThreshold
	out := &EpochMetrics{
		Epoch:     v.Epoch,
		Start:     v.Start,
		Stable:    v.StableCount(),
		ISPCounts: make(map[isp.ISP]int, isp.NumISPs),
		Quality:   make(map[string][2]int, len(_qualityChannels)),
	}

	// The active graph first: its node indices are the space the rest of
	// the epoch works in. Reporters are nodes 0…R−1, ends holds the node
	// of every active partner entry, and the stable graph is the
	// reporter prefix.
	graphSpan := cfg.Tracer.Start("active_graph")
	ag := v.activeGraphInto(sc.build, &sc.snap, thr, &sc.ends)
	graphSpan.End()

	scanSpan := cfg.Tracer.Start("epoch_scan")

	// Population and ISP mix over all visible peers.
	all := v.AllPeers()
	out.Total = len(all)
	for _, a := range all {
		p := db.Lookup(a)
		if p == isp.Unknown {
			out.Unknown++
			continue
		}
		out.ISPCounts[p]++
	}

	// Each node's ISP, looked up once: the intra-ISP fractions, the
	// reciprocity split and the Netcom subgraph all read this column.
	sc.isps = sc.isps[:0]
	for i := range ag.N() {
		sc.isps = append(sc.isps, db.Lookup(ag.Addr(int32(i))))
	}
	nodeISP := sc.isps

	// Streaming quality per channel (Fig. 3).
	reports := v.Reports()
	for i := range reports {
		rep := &reports[i]
		if !slices.Contains(_qualityChannels[:], rep.Channel) {
			continue
		}
		sv := out.Quality[rep.Channel]
		sv[1]++
		if rep.RecvKbps >= _qualityBar*workload.StreamRateKbps {
			sv[0]++
		}
		out.Quality[rep.Channel] = sv
	}

	// Degree means and intra-ISP fractions over stable peers. Only an
	// active partner entry can count toward a fraction, and each
	// reporter's active entries are the next ones in ends.
	var sumP, sumIn, sumOut float64
	var fracIn, fracOut float64
	nIn, nOut := 0, 0
	ends := sc.ends
	for i := range reports {
		rep := &reports[i]
		d := Degrees(rep, thr)
		sumP += float64(d.Partners)
		sumIn += float64(d.In)
		sumOut += float64(d.Out)

		self := nodeISP[i]
		intraIn, intraOut := 0, 0
		for _, p := range rep.Partners {
			if p.RecvSeg <= thr && p.SentSeg <= thr {
				continue
			}
			if nodeISP[ends[0]] == self {
				if p.RecvSeg > thr {
					intraIn++
				}
				if p.SentSeg > thr {
					intraOut++
				}
			}
			ends = ends[1:]
		}
		if self == isp.Unknown {
			continue
		}
		if d.In > 0 {
			fracIn += float64(intraIn) / float64(d.In)
			nIn++
		}
		if d.Out > 0 {
			fracOut += float64(intraOut) / float64(d.Out)
			nOut++
		}
	}
	n := float64(out.Stable)
	if n > 0 {
		out.DegPartners, out.DegIn, out.DegOut = sumP/n, sumIn/n, sumOut/n
	}
	out.IntraIn, out.IntraOut = math.NaN(), math.NaN()
	if nIn > 0 {
		out.IntraIn = fracIn / float64(nIn)
	}
	if nOut > 0 {
		out.IntraOut = fracOut / float64(nOut)
	}
	scanSpan.End()

	// Reciprocity over all active links (Fig. 8): r and ρ from one count
	// of bilateral edges. The intra- and inter-ISP split needs only node,
	// edge, and bilateral counts, so it is computed straight off the
	// active graph in one traversal — no subgraph is materialized.
	recipSpan := cfg.Tracer.Start("reciprocity")
	rs := ag.ReciprocityStats()
	out.RawR, out.RhoAll = rs.R(), rs.GarlaschelliLoffredo()
	intra, inter := ag.PartitionReciprocity(func(u, v int32) bool {
		pu := nodeISP[u]
		return pu != isp.Unknown && pu == nodeISP[v]
	})
	out.RhoIntra, out.RhoInter = math.NaN(), math.NaN()
	if intra.M > 0 {
		out.RhoIntra = intra.GarlaschelliLoffredo()
	}
	if inter.M > 0 {
		out.RhoInter = inter.GarlaschelliLoffredo()
	}
	recipSpan.End()

	// Small-world metrics on the stable-peer graph (Fig. 7), on the
	// heavy cadence only.
	if pos%cfg.HeavyEveryN == 0 {
		swSpan := cfg.Tracer.Start("small_world")
		out.Heavy = true
		rng := sc.seeded(cfg.Seed ^ v.Epoch*2654435761)
		// The stable graph is the active graph's reporter prefix, cut in
		// place: from here on the active graph is gone, and its arena
		// holds the stable graph. Node indices below R are unchanged, so
		// the ISP column still applies.
		sg := ag.KeepPrefix(out.Stable)
		out.C = sg.ClusteringCoefficient()
		out.L = sg.AveragePathLength(rng, _pathSamples)
		out.CRand, out.LRand = sc.random.Baseline(sg, rng, _pathSamples)

		sub := sg.InducedSubgraphInto(&sc.sub, func(i int32) bool { return nodeISP[i] == _ispFocus })
		if sub.N() >= 10 && sub.M() > 0 {
			out.ISPGraphOK = true
			out.CISP = sub.ClusteringCoefficient()
			out.LISP = sub.AveragePathLength(rng, _pathSamples)
			out.CRandISP, out.LRandISP = sc.random.Baseline(sub, rng, _pathSamples)
		}
		swSpan.End()
	}

	// Fig. 4 degree snapshot.
	if snapLabel := k.labels[v.Epoch]; snapLabel != "" && out.Stable > 0 {
		snapSpan := cfg.Tracer.Start("degree_snapshot")
		defer snapSpan.End()
		snap := &DegreeSnapshot{
			Label:    snapLabel,
			Time:     v.Start,
			Partners: metrics.NewHistogram(nil),
			In:       metrics.NewHistogram(nil),
			Out:      metrics.NewHistogram(nil),
		}
		for i := range reports {
			d := Degrees(&reports[i], cfg.ActiveThreshold)
			snap.Partners.Add(d.Partners)
			snap.In.Add(d.In)
			snap.Out.Add(d.Out)
		}
		snap.PartnersFit = graph.FitPowerLaw(snap.Partners.Values(), 1)
		snap.InFit = graph.FitPowerLaw(snap.In.Values(), 1)
		snap.OutFit = graph.FitPowerLaw(snap.Out.Values(), 1)
		out.Snapshot = snap
	}

	return out
}

// assemble folds per-epoch outputs into the figure-level results.
func assemble(interval time.Duration, cfg Config, specs []SnapshotSpec, outs []*EpochMetrics, days []DayCount) (*Results, error) {
	res := &Results{
		Interval:   interval,
		EpochCount: len(outs),
	}

	// Fig. 1A: simultaneous peers.
	pc := PeerCountsResult{Total: metrics.NewSeries(), Stable: metrics.NewSeries()}
	for _, o := range outs {
		pc.Total.Add(o.Start, float64(o.Total))
		pc.Stable.Add(o.Start, float64(o.Stable))
	}
	pc.MeanTotal = pc.Total.Mean()
	pc.MeanStable = pc.Stable.Mean()
	if pc.MeanTotal > 0 {
		pc.StableShare = pc.MeanStable / pc.MeanTotal
	}

	// Fig. 1B: daily distinct addresses.
	pc.Days = days
	res.PeerCounts = pc

	// Fig. 2: ISP shares, averaged over epochs.
	ispTotals := make(map[isp.ISP]float64, isp.NumISPs)
	var known, unknown float64
	for _, o := range outs {
		for p, c := range o.ISPCounts {
			ispTotals[p] += float64(c)
			known += float64(c)
		}
		unknown += float64(o.Unknown)
	}
	shares := make(map[isp.ISP]float64, len(ispTotals))
	if known > 0 {
		for p, c := range ispTotals {
			shares[p] = c / known
		}
	}
	var unknownFrac float64
	if known+unknown > 0 {
		unknownFrac = unknown / (known + unknown)
	}
	res.ISPShares = ISPSharesResult{Shares: shares, UnknownFrac: unknownFrac}

	// Fig. 3: streaming quality.
	q := QualityResult{
		Bar:       _qualityBar,
		RateKbps:  workload.StreamRateKbps,
		ByChannel: make(map[string]*metrics.Series, len(_qualityChannels)),
		Viewers:   make(map[string]*metrics.Series, len(_qualityChannels)),
	}
	for _, ch := range _qualityChannels {
		q.ByChannel[ch] = metrics.NewSeries()
		q.Viewers[ch] = metrics.NewSeries()
	}
	for _, o := range outs {
		for ch, sv := range o.Quality {
			if sv[1] == 0 {
				continue
			}
			q.ByChannel[ch].Add(o.Start, float64(sv[0])/float64(sv[1]))
			q.Viewers[ch].Add(o.Start, float64(sv[1]))
		}
	}
	res.Quality = q

	// Fig. 4: degree snapshots, in configuration order.
	byLabel := make(map[string]*DegreeSnapshot)
	for _, o := range outs {
		if o.Snapshot != nil {
			byLabel[o.Snapshot.Label] = o.Snapshot
		}
	}
	for _, spec := range specs {
		if snap, ok := byLabel[spec.Label]; ok {
			res.DegreeDist.Snapshots = append(res.DegreeDist.Snapshots, *snap)
		}
	}

	// Fig. 5: degree evolution.
	de := DegreeEvolutionResult{
		Partners: metrics.NewSeries(),
		In:       metrics.NewSeries(),
		Out:      metrics.NewSeries(),
	}
	for _, o := range outs {
		if o.Stable == 0 {
			continue
		}
		de.Partners.Add(o.Start, o.DegPartners)
		de.In.Add(o.Start, o.DegIn)
		de.Out.Add(o.Start, o.DegOut)
	}
	res.DegreeEvolution = de

	// Fig. 6: intra-ISP degree fractions, with the random-mixing floor.
	ii := IntraISPResult{InFrac: metrics.NewSeries(), OutFrac: metrics.NewSeries()}
	for _, o := range outs {
		if !math.IsNaN(o.IntraIn) {
			ii.InFrac.Add(o.Start, o.IntraIn)
		}
		if !math.IsNaN(o.IntraOut) {
			ii.OutFrac.Add(o.Start, o.IntraOut)
		}
	}
	// Iterate ISPs in enum order: summing squares in map order would let
	// float association leak map layout into the output.
	for _, p := range isp.All() {
		s := shares[p]
		ii.RandomMixing += s * s
	}
	res.IntraISP = ii

	// Fig. 7: small-world metrics.
	sw := SmallWorldResult{
		C: metrics.NewSeries(), L: metrics.NewSeries(),
		CRand: metrics.NewSeries(), LRand: metrics.NewSeries(),
		ISP:  _ispFocus,
		CISP: metrics.NewSeries(), LISP: metrics.NewSeries(),
		CRandISP: metrics.NewSeries(), LRandISP: metrics.NewSeries(),
	}
	for _, o := range outs {
		if !o.Heavy {
			continue
		}
		sw.C.Add(o.Start, o.C)
		sw.L.Add(o.Start, o.L)
		sw.CRand.Add(o.Start, o.CRand)
		sw.LRand.Add(o.Start, o.LRand)
		if o.ISPGraphOK {
			sw.CISP.Add(o.Start, o.CISP)
			sw.LISP.Add(o.Start, o.LISP)
			sw.CRandISP.Add(o.Start, o.CRandISP)
			sw.LRandISP.Add(o.Start, o.LRandISP)
		}
	}
	res.SmallWorld = sw

	// Fig. 8: reciprocity.
	rc := ReciprocityResult{
		Raw: metrics.NewSeries(), All: metrics.NewSeries(),
		Intra: metrics.NewSeries(), Inter: metrics.NewSeries(),
	}
	for _, o := range outs {
		rc.Raw.Add(o.Start, o.RawR)
		rc.All.Add(o.Start, o.RhoAll)
		if !math.IsNaN(o.RhoIntra) {
			rc.Intra.Add(o.Start, o.RhoIntra)
		}
		if !math.IsNaN(o.RhoInter) {
			rc.Inter.Add(o.Start, o.RhoInter)
		}
	}
	res.Reciprocity = rc

	return res, nil
}
