// Package stream moves media segments across the partner mesh. It is a
// flow-level model of UUSee's BitTorrent-like block exchange: rather than
// simulating individual block requests, each tick allocates each supplier's
// upload budget across the receivers pulling from it and counts the
// segments transferred per directed link — exactly the quantities the
// trace reports carry and the paper's analyses consume.
//
// Two exchange modes exist. ModeMesh is the real protocol: every peer
// pulls from its best-scored partners, so a pair of peers that select
// each other trade segments in both directions, which is where the
// paper's positive edge reciprocity comes from. ModeTreePush is the
// thought experiment of Sec. 4.4 — content only flows from peers closer
// to the origin servers toward peers farther away — used by the ablation
// bench to show that tree-like propagation drives reciprocity below zero.
//
// # Sharded ticks
//
// The mesh tick is phased so it can fan out across Config.Shards worker
// goroutines and still produce byte-identical traces for every shard
// count, including the old sequential engine's output. Everything whose
// order can influence the result stays on a sequential spine:
//
//   - the receiver shuffle (the tick's only RNG use),
//   - the merge that counting-sorts every request into one flat array,
//     grouped by supplier in first-request order, and
//   - the fold that accumulates receiver-side segment counts in exactly
//     the (supplier, sorted-request) order the sequential engine applied
//     them, so float addition order is unchanged.
//
// The parallel phases — per-receiver request computation, per-supplier
// water-filling, per-peer finalization — are pure per-item functions of
// state frozen before the phase starts, writing only item-owned slots.
// Partitioning them cannot reorder any observable arithmetic.
package stream

import (
	"cmp"
	"math/rand"
	"slices"
	"sync"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/protocol"
)

// SegKB is the media segment size: 10 KB, so a 400 kbps stream is five
// segments per second. The paper's active-partner threshold (10 segments
// per 10-minute report window) is defined over these units.
const SegKB = 10

// segPerKbpsSec converts kbps sustained for one second into segments.
const segPerKbpsSec = 1.0 / (SegKB * 8)

// SegOf returns the number of segments a flow of rateKbps delivers in dt.
func SegOf(rateKbps float64, dt time.Duration) float64 {
	return rateKbps * dt.Seconds() * segPerKbpsSec
}

// KbpsOf converts a segment count over dt back into kbps.
func KbpsOf(seg float64, dt time.Duration) float64 {
	if dt <= 0 {
		return 0
	}
	return seg / segPerKbpsSec / dt.Seconds()
}

// Mode selects the content propagation discipline.
type Mode uint8

// Exchange modes.
const (
	ModeMesh Mode = iota + 1
	ModeTreePush
)

// _overRequest is how much more than its demand a receiver asks for, to
// absorb supplier-side shortfalls.
const _overRequest = 1.2

// Config tunes the exchange.
type Config struct {
	// Mode defaults to ModeMesh.
	Mode Mode
	// SpreadFraction caps how much of its demand a receiver requests
	// from any single supplier. Block-based swarming stripes requests
	// across many partners rather than draining one, which is what keeps
	// the paper's active indegree near 10 even when a single fat link
	// could carry the whole stream. Defaults to 0.15 (so a receiver
	// needs ≈ 8 suppliers to cover its demand).
	SpreadFraction float64
	// Shards is the number of worker goroutines the mesh tick fans out
	// to. 1 (the default) runs fully sequentially; any value produces
	// byte-identical results. Block mode is always sequential.
	Shards int
}

func (c Config) sanitize() Config {
	if c.Mode == 0 {
		c.Mode = ModeMesh
	}
	if c.SpreadFraction <= 0 || c.SpreadFraction > 1 {
		c.SpreadFraction = 0.15
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	return c
}

// Exchange runs the per-tick allocation. It is not safe for concurrent
// use.
type Exchange struct {
	cfg     Config
	rng     *rand.Rand
	elapsed time.Duration // stream age, drives the block-mode live edge

	// The mesh tick's inputs, set by Tick for the phase kernels that
	// parallel runs. Tick clears them before it returns: cols aliases the
	// table, and Add or Remove invalidates it.
	tab   *protocol.Table
	cols  protocol.Cols
	peers []*protocol.Peer
	dt    time.Duration

	order    []*protocol.Peer    // scratch: shuffled receiver order
	perRecv  [][]request         // scratch: requests per shuffled position
	grants   []grantReq          // scratch: every request, grouped by supplier
	supOrder []protocol.Handle   // scratch: suppliers in first-request order
	supStart []int32             // scratch: supOrder[k]'s requests are grants[supStart[k]:supStart[k+1]]
	cursor   []int32             // scratch by supplier handle, zero between ticks
	ranked   [][]protocol.Ranked // per-worker supplier-ranking scratch
	perLink  []float64           // block-mode per-supplier stripe
	budget   []float64           // block-mode per-slot upload budget
	missing  []uint64            // block-mode scratch
}

// request is one receiver→supplier pull, recorded during the parallel
// request phase and merged on the sequential spine. It names the
// supplier by handle and the edge by both of its entries: rp, the
// receiver-side entry, and slot, the supplier-side one. Partner lists
// never mutate during a tick, so both stay valid through the grant
// phase and the supplier never searches for the edge.
type request struct {
	rp   *protocol.Partner
	seg  float64
	sup  protocol.Handle
	slot int32
}

// grantReq is one entry of a supplier's run of the flat request array.
// It carries the receiver's handle and ID inline, so the grant sort and
// the fold never dereference a peer. granted is filled by the parallel
// grant phase and folded into the receiver's accumulator on the
// sequential spine.
type grantReq struct {
	rp      *protocol.Partner
	seg     float64
	granted float64
	recv    protocol.Handle
	id      isp.Addr
	slot    int32
}

// NewExchange builds an exchange engine.
func NewExchange(cfg Config, rng *rand.Rand) *Exchange {
	cfg = cfg.sanitize()
	return &Exchange{
		cfg:    cfg,
		rng:    rng,
		ranked: make([][]protocol.Ranked, cfg.Shards),
	}
}

// parallel partitions [0,n) into contiguous chunks across the
// configured shard count and runs fn(e, lo, hi, worker) for each. With
// one shard (or one item) it runs inline. fn is a plain function that
// reads the tick's inputs from e: a closure would escape through the
// goroutine branch and cost an allocation per phase on the inline path
// too.
func (e *Exchange) parallel(n int, fn func(e *Exchange, lo, hi, worker int)) {
	w := e.cfg.Shards
	if w > n {
		w = n
	}
	if w <= 1 {
		if n > 0 {
			fn(e, 0, n, 0)
		}
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		lo := i * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi, i int) {
			defer wg.Done()
			fn(e, lo, hi, i)
		}(lo, hi, i)
	}
	wg.Wait()
}

// Tick advances the exchange by dt: receivers issue pull requests to
// their best suppliers, suppliers water-fill their upload budgets across
// requesters, and all per-link and per-peer counters are updated.
//
// tab is the table every peer belongs to: partner entries name their
// far side by handle in it.
func (e *Exchange) Tick(tab *protocol.Table, peers []*protocol.Peer, dt time.Duration) {
	e.elapsed += dt
	cols := tab.Cols()

	// Phase 0: reset tick accumulators. Clearing whole columns also
	// touches free slots, which is harmless: they are re-initialized on
	// reuse.
	clear(cols.TickRecv)
	clear(cols.TickSent)

	if e.cfg.Mode == ModeBlock {
		e.blockTick(tab, peers, dt, e.elapsed)
		return
	}
	e.tab, e.cols, e.peers, e.dt = tab, cols, peers, dt

	// Phase 1a (sequential): shuffled receiver order, so no peer has a
	// systematic first-mover advantage across a run. The tick's only
	// RNG draw.
	e.order = e.order[:0]
	for _, p := range peers {
		if !cols.Server[p.Handle()] {
			e.order = append(e.order, p)
		}
	}
	e.rng.Shuffle(len(e.order), func(i, j int) { e.order[i], e.order[j] = e.order[j], e.order[i] })

	// Phase 1b (parallel): each receiver computes its request list from
	// state frozen at the end of the previous tick (partner scores,
	// advertised shares, depths). Results land in per-position slots.
	n := len(e.order)
	for len(e.perRecv) < n {
		// collectInto adds at most one request per ranked supplier, and
		// RankSuppliers returns at most TargetActive, so no position's
		// buffer ever regrows.
		e.perRecv = append(e.perRecv, make([]request, 0, protocol.TargetActive))
	}
	e.parallel(n, collectPhase)

	// Phase 1c (sequential spine): merge the per-receiver lists into one
	// flat array grouped by supplier.
	e.groupBySupplier(n, tab.Cap())

	// Phase 2a (parallel): suppliers water-fill. Each writes only
	// supplier-owned state: its run of the request array (sort + granted
	// amounts), its tick-sent/share columns, its own partner counters,
	// and the receiver-side counter of the partner edge pointing back at
	// it — distinct memory per (supplier, receiver) pair.
	e.parallel(len(e.supOrder), grantPhase)

	// Phase 2b (sequential spine): fold granted segments into receiver
	// accumulators in the exact (first-request supplier, sorted request)
	// order the sequential engine applied them — the flat array's order
	// — so float addition order is bit-identical.
	for i := range e.grants {
		if r := &e.grants[i]; r.granted > 0 {
			cols.TickRecv[r.recv] += r.granted
		}
	}

	// Phase 3 (parallel): finalize per-peer aggregates and quality.
	e.parallel(len(peers), finalizePhase)
	e.tab, e.cols, e.peers = nil, protocol.Cols{}, nil
}

// groupBySupplier counting-sorts the request lists of the first n
// shuffled receivers into grants, one run per supplier, and lists the
// suppliers in supOrder with their runs' bounds in supStart. Walking
// positions in shuffle order recreates the sequential engine's order:
// suppliers in first-request order, each supplier's requests in
// shuffle order. cursor, indexed by supplier handle (capHandles is the
// table's slot count), first counts each supplier's requests, then
// marks where its next one goes, and is zeroed again on return.
func (e *Exchange) groupBySupplier(n, capHandles int) {
	for len(e.cursor) < capHandles {
		e.cursor = append(e.cursor, 0)
	}
	e.supOrder = e.supOrder[:0]
	for _, reqs := range e.perRecv[:n] {
		for _, rq := range reqs {
			if e.cursor[rq.sup] == 0 {
				e.supOrder = append(e.supOrder, rq.sup)
			}
			e.cursor[rq.sup]++
		}
	}
	e.supStart = e.supStart[:0]
	total := int32(0)
	for _, h := range e.supOrder {
		e.supStart = append(e.supStart, total)
		total, e.cursor[h] = total+e.cursor[h], total
	}
	e.supStart = append(e.supStart, total)
	if cap(e.grants) < int(total) {
		// Double: the population ramps up, and append-sized steps would
		// regrow the array many times over.
		e.grants = make([]grantReq, total, max(int(total), 2*cap(e.grants)))
	}
	e.grants = e.grants[:total]
	for i, reqs := range e.perRecv[:n] {
		recv, id := e.order[i].Handle(), e.order[i].ID()
		for _, rq := range reqs {
			k := e.cursor[rq.sup]
			e.cursor[rq.sup] = k + 1
			e.grants[k] = grantReq{rp: rq.rp, seg: rq.seg, recv: recv, id: id, slot: rq.slot}
		}
	}
	for _, h := range e.supOrder {
		e.cursor[h] = 0
	}
}

// collectPhase computes the request lists of receivers [lo, hi).
func collectPhase(e *Exchange, lo, hi, w int) {
	for i := lo; i < hi; i++ {
		e.perRecv[i] = e.collectInto(e.perRecv[i][:0], e.order[i], e.cols, e.dt, w)
	}
}

// grantPhase water-fills suppliers supOrder[lo:hi].
func grantPhase(e *Exchange, lo, hi, _ int) {
	for k := lo; k < hi; k++ {
		e.grant(k, e.cols, e.dt)
	}
}

// finalizePhase finalizes peers [lo, hi).
func finalizePhase(e *Exchange, lo, hi, _ int) {
	finalizeMesh(e.peers[lo:hi], e.cols, e.dt)
}

// collectInto computes one receiver's pull requests — a pure function
// of previous-tick state — appending them to dst. Suppliers are read
// through the receiver's own partner entries and the table columns,
// never through a far-side peer. The only write, RankSuppliers'
// repair of the receiver's own supplier order, touches nothing another
// receiver reads and leaves the ranking as it was.
//
//magellan:hotpath
func (e *Exchange) collectInto(dst []request, p *protocol.Peer, cols protocol.Cols, dt time.Duration, worker int) []request {
	h := p.Handle()
	demand := SegOf(cols.Rate[h], dt)
	if demand <= 0 {
		return dst
	}
	want := demand * _overRequest
	// A receiver cannot aggregate beyond its own downlink; peers on weak
	// access links are structurally capped below the stream rate.
	if lim := SegOf(cols.Down[h], dt); want > lim {
		want = lim
	}
	covered := 0.0
	ranked := p.RankSuppliers(e.ranked[worker][:0], protocol.TargetActive)
	for _, rk := range ranked {
		pt := rk.Pt
		sh := pt.Handle()
		if e.cfg.Mode == ModeTreePush && !cols.Server[sh] && cols.Depth[sh] >= cols.Depth[h] {
			continue
		}
		est := SegOf(pt.CapacityKbps, dt)
		if share := SegOf(cols.Share[sh], dt); share < est {
			est = share
		}
		if lim := demand * e.cfg.SpreadFraction; est > lim {
			est = lim
		}
		// Always probe a supplier for at least a trickle: saturated
		// suppliers can recover, and probing is how the client discovers
		// freed capacity.
		if floor := demand * 0.02; est < floor {
			est = floor
		}
		amount := want - covered
		if amount > est {
			amount = est
		}
		if amount <= 0 {
			break
		}
		dst = append(dst, request{rp: pt, seg: amount, sup: sh, slot: pt.Recip()})
		covered += amount
		if covered >= want {
			break
		}
	}
	e.ranked[worker] = ranked[:0]
	return dst
}

// grant water-fills supplier supOrder[k]'s upload budget across its
// requesters: requests smaller than the fair share are fully served, and
// the freed budget is redistributed among the rest. Receiver-side tick
// accumulators are NOT touched here — the granted amounts are folded on
// the sequential spine.
//
//magellan:hotpath
func (e *Exchange) grant(k int, cols protocol.Cols, dt time.Duration) {
	h := e.supOrder[k]
	s := e.tab.Peer(h)
	reqs := e.grants[e.supStart[k]:e.supStart[k+1]]
	budget := SegOf(cols.Up[h], dt)
	sortGrants(reqs)
	remaining := budget
	for i := range reqs {
		r := &reqs[i]
		fair := remaining / float64(len(reqs)-i)
		g := r.seg
		if g > fair {
			g = fair
		}
		if g <= 0 {
			continue
		}
		remaining -= g
		r.granted = g
		s.Slot(r.slot).WinSent += g
		r.rp.WinRecv += g
		cols.TickSent[h] += g
	}
	// Advertise next tick's expected per-receiver share.
	cols.Share[h] = cols.Up[h] / float64(len(reqs))
}

// _grantInsertionMax is the longest run sortGrants sorts by insertion.
// Most suppliers serve a few requests a tick, where insertion beats the
// generic sort's comparator calls.
const _grantInsertionMax = 24

// sortGrants sorts one supplier's run by (segments, receiver ID). The
// order is total — a receiver requests a supplier at most once a tick,
// and request amounts are never NaN — so both algorithms give the same
// permutation.
func sortGrants(reqs []grantReq) {
	if len(reqs) > _grantInsertionMax {
		slices.SortFunc(reqs, func(a, b grantReq) int {
			if a.seg != b.seg {
				return cmp.Compare(a.seg, b.seg)
			}
			return cmp.Compare(a.id, b.id)
		})
		return
	}
	for i := 1; i < len(reqs); i++ {
		r := reqs[i]
		j := i
		for ; j > 0 && (r.seg < reqs[j-1].seg || r.seg == reqs[j-1].seg && r.id < reqs[j-1].id); j-- {
			reqs[j] = reqs[j-1]
		}
		reqs[j] = r
	}
}

// finalizeMesh updates throughput aggregates and quality for one chunk
// of the population.
//
//magellan:hotpath
func finalizeMesh(peers []*protocol.Peer, cols protocol.Cols, dt time.Duration) {
	for _, p := range peers {
		h := p.Handle()
		cols.LastRecv[h] = KbpsOf(cols.TickRecv[h], dt)
		cols.LastSent[h] = KbpsOf(cols.TickSent[h], dt)
		if cols.Server[h] {
			continue
		}
		demand := SegOf(cols.Rate[h], dt)
		if demand > 0 {
			p.UpdateQuality(cols.TickRecv[h] / demand)
		}
	}
}

// ComputeDepths assigns every peer its hop distance from the nearest
// origin server over the partner mesh (servers are depth 0, unreachable
// peers protocol.MaxDepth). The tree-push mode consults these depths; the
// mesh mode ignores them.
func ComputeDepths(tab *protocol.Table, peers []*protocol.Peer) {
	queue := make([]*protocol.Peer, 0, len(peers))
	for _, p := range peers {
		if p.IsServer() {
			p.SetDepth(0)
			queue = append(queue, p)
		} else {
			p.SetDepth(protocol.MaxDepth)
		}
	}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		d := cur.Depth() + 1
		for _, id := range cur.PartnerIDs() {
			next := tab.Lookup(id)
			if next == nil || next.Depth() <= d {
				continue
			}
			next.SetDepth(d)
			queue = append(queue, next)
		}
	}
}
