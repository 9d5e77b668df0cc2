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

// epochScratch is the per-worker reusable state: the graph builders
// whose index maps and edge arrays survive from epoch to epoch, the
// column builder for epochs sent as raw reports, and the worker's shard
// of the Fig. 1B day-distinct fold (merged after the pool drains, so no
// lock serializes the hot loop). One scratch serves any number of
// sequential epochs; concurrent workers need one each.
type epochScratch struct {
	active *graph.CSRBuilder
	stable *graph.CSRBuilder
	cols   *trace.EpochColumns
	days   map[int64]*daySets
}

func newEpochScratch() *epochScratch {
	return &epochScratch{
		active: graph.NewCSRBuilder(),
		stable: graph.NewCSRBuilder(),
		cols:   trace.NewEpochColumns(),
		days:   make(map[int64]*daySets),
	}
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
	outs, scratches := runSealed(ix, &kernel{ix.Interval(), db, cfg, snapshotLabels(ix.Interval(), specs)})
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

// mergeDays unions the workers' shards of the day-distinct sets. Set
// union commutes, so shard and map iteration order cannot leak into the
// merged counts.
func mergeDays(tr obs.Tracer, scratches []*epochScratch) map[int64]*daySets {
	sp := tr.Start("merge_days")
	defer sp.End()
	days := make(map[int64]*daySets)
	for _, sc := range scratches {
		for k, ds := range sc.days {
			dst, ok := days[k]
			if !ok {
				days[k] = ds
				continue
			}
			for a := range ds.total {
				dst.total[a] = struct{}{}
			}
			for a := range ds.stable {
				dst.stable[a] = struct{}{}
			}
		}
	}
	return days
}

// foldDay adds one epoch's populations to its trace day's distinct sets.
func foldDay(days map[int64]*daySets, v EpochView) {
	local := v.Start.In(workload.Beijing)
	day := time.Date(local.Year(), local.Month(), local.Day(), 0, 0, 0, 0, workload.Beijing)
	key := day.Unix()
	ds, ok := days[key]
	if !ok {
		ds = &daySets{
			total:  make(map[isp.Addr]struct{}),
			stable: make(map[isp.Addr]struct{}),
		}
		days[key] = ds
	}
	for _, a := range v.AllPeers() {
		ds.total[a] = struct{}{}
	}
	for _, a := range v.Reporters() {
		ds.stable[a] = struct{}{}
	}
}

// run computes everything the figures need from the snapshot at send or
// close position pos. It is the shared per-epoch kernel: every driver —
// the sealed-index pool, the single-pass stream, and the live analyzer's
// EpochRunner — calls exactly this function, which is why their per-epoch
// outputs can be byte-compared. The per-epoch RNG is derived from
// (cfg.Seed, v.Epoch) alone, so one epoch's result is independent of
// every other epoch.
func (k *kernel) run(v EpochView, pos int, sc *epochScratch) *EpochMetrics {
	db, cfg := k.db, k.cfg
	rng := rand.New(rand.NewSource(cfg.Seed ^ v.Epoch*2654435761))
	out := &EpochMetrics{
		Epoch:     v.Epoch,
		Start:     v.Start,
		Stable:    v.StableCount(),
		ISPCounts: make(map[isp.ISP]int, isp.NumISPs),
		Quality:   make(map[string][2]int, len(_qualityChannels)),
	}

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

	// Degree means and intra-ISP fractions over stable peers.
	var sumP, sumIn, sumOut float64
	var fracIn, fracOut float64
	nIn, nOut := 0, 0
	for i := range reports {
		rep := &reports[i]
		d := Degrees(rep, cfg.ActiveThreshold)
		sumP += float64(d.Partners)
		sumIn += float64(d.In)
		sumOut += float64(d.Out)

		self := db.Lookup(rep.Addr)
		if self == isp.Unknown {
			continue
		}
		intraIn, intraOut := 0, 0
		for _, p := range rep.Partners {
			same := db.Lookup(p.Addr) == self
			if p.RecvSeg > cfg.ActiveThreshold && same {
				intraIn++
			}
			if p.SentSeg > cfg.ActiveThreshold && same {
				intraOut++
			}
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

	// Reciprocity over all active links (Fig. 8). The intra- and
	// inter-ISP split needs only node, edge, and bilateral counts, so it
	// is computed straight off the active graph in one traversal — no
	// subgraph is materialized.
	graphSpan := cfg.Tracer.Start("active_graph")
	ag := v.ActiveGraphInto(sc.active, cfg.ActiveThreshold)
	graphSpan.End()
	recipSpan := cfg.Tracer.Start("reciprocity")
	out.RawR = ag.Reciprocity()
	out.RhoAll = ag.GarlaschelliLoffredo()
	intra, inter := ag.PartitionReciprocity(func(a, b isp.Addr) bool {
		pa, pb := db.Lookup(a), db.Lookup(b)
		return pa != isp.Unknown && pa == pb
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
		sg := v.StableGraphInto(sc.stable, cfg.ActiveThreshold)
		out.C = sg.ClusteringCoefficient()
		out.L = sg.AveragePathLength(rng, _pathSamples)
		out.CRand, out.LRand = graph.RandomBaseline(sg, rng, _pathSamples)

		sub := sg.InducedSubgraph(func(a isp.Addr) bool { return db.Lookup(a) == _ispFocus })
		if sub.N() >= 10 && sub.M() > 0 {
			out.ISPGraphOK = true
			out.CISP = sub.ClusteringCoefficient()
			out.LISP = sub.AveragePathLength(rng, _pathSamples)
			out.CRandISP, out.LRandISP = graph.RandomBaseline(sub, rng, _pathSamples)
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

// daySets accumulates one trace day's distinct addresses.
type daySets struct {
	total  map[isp.Addr]struct{}
	stable map[isp.Addr]struct{}
}

// assemble folds per-epoch outputs into the figure-level results.
func assemble(interval time.Duration, cfg Config, specs []SnapshotSpec, outs []*EpochMetrics, days map[int64]*daySets) (*Results, error) {
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
	dayKeys := make([]int64, 0, len(days))
	for k := range days {
		dayKeys = append(dayKeys, k)
	}
	slices.Sort(dayKeys)
	for _, k := range dayKeys {
		pc.Days = append(pc.Days, DayCount{
			Day:    time.Unix(k, 0).In(workload.Beijing),
			Total:  len(days[k].total),
			Stable: len(days[k].stable),
		})
	}
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
