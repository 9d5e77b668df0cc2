package protocol

import (
	"math/rand"
	"slices"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/netsim"
)

// Partner is one edge of a peer's partner list: a live TCP connection
// with its throughput ceiling and the segment bookkeeping the UUSee
// client keeps per partner (Sec. 3.2: "the number of sent/received
// segments over the TCP connection"). The slot is 40 bytes and holds no
// pointer, so the garbage collector never scans partner storage; the
// far side is reached through its table handle.
type Partner struct {
	ID   isp.Addr
	Port uint16
	// CapacityKbps is the connection's throughput ceiling, the one link
	// quantity the exchange reads once the edge exists: the score
	// suppliers are ranked by is frozen into the edge column.
	CapacityKbps float64
	// Window counters since the peer's last trace report; the report
	// carries these and resets them.
	WinSent float64
	WinRecv float64

	// peer is the other endpoint's handle in the shared table.
	peer Handle
	// recip is the slot of the reciprocal entry in peer's storage.
	// Slots never move, so the index stays valid for the partnership's
	// lifetime — the grant path and every teardown follow it instead of
	// searching by ID.
	recip int32
}

// Handle returns the far peer's handle in the table both peers share.
// Valid only while the partnership exists.
func (pt *Partner) Handle() Handle { return pt.peer }

// Recip returns the storage slot of the far side's entry for this edge,
// for the far peer's Slot. Valid only while the partnership exists.
func (pt *Partner) Recip() int32 { return pt.recip }

// edge is one slot of the edge column, parallel to the partner slots:
// the frozen supplier-selection score, the partner ID, whether the slot
// holds a live partnership, and whether it was filled since the peer's
// last ranking. A free slot's id holds the next free slot instead: the
// free list is chained through the column (see partnerStore). Ranking
// and ID reads scan these 16 bytes per slot and never touch the Partner
// entries, whose counter fields the sharded grant phase writes
// concurrently.
//
// The score is frozen when the partnership forms: Link.Score is pure
// and LocalityBias is fixed before a peer connects, so computing it once
// replaces a per-tick recomputation.
type edge struct {
	score float64
	id    isp.Addr
	live  bool
	fresh bool
}

// outranks reports whether e ranks before f in the supplier order:
// score desc, then ID asc, which is total because a peer's live
// partners have distinct IDs.
func (e *edge) outranks(f *edge) bool {
	return e.score > f.score || (e.score == f.score && e.id < f.id)
}

// MaxDepth is the depth assigned to peers with no supply path from an
// origin server; only the tree-push ablation consults depths.
const MaxDepth = 1 << 30

// Peer is a UUSee client's protocol-state boundary object: the cold
// identity and partner-list state, plus a handle into the Table holding
// the hot per-tick columns (rates, quality, throughput accumulators).
type Peer struct {
	Host     netsim.Host
	Port     uint16
	Channel  string
	JoinedAt time.Time
	// StarveCount counts consecutive maintenance rounds below the
	// starvation quality threshold.
	StarveCount int
	// LocalityBias weights same-ISP links in supplier ranking (the
	// future-work ISP-aware client). 0 reproduces the deployed,
	// ISP-oblivious selection.
	LocalityBias float64

	// Buffer and PlaySeg are the block-mode state: the sliding-window
	// buffer map the client advertises to partners, and the playback
	// position in stream segments. The flow-level exchange mode leaves
	// them untouched (reports then carry a synthesized bitmap).
	Buffer  Window
	PlaySeg float64

	tab *Table
	h   Handle
	srv bool // mirror of the table's server column; see IsServer

	// The partner-list storage is embedded so its arrays can be parked
	// in the table when the peer departs and recycled by the slot's
	// next occupant — under sustained churn the event plane stops
	// allocating entirely.
	partnerStore
}

// partnerStore is a peer's partner-list storage, built for churn.
// partners is slot storage and edges its parallel edge column: a slot
// is filled on connect, returned to the free list the moment its edge
// is torn down, and never moves — which is what lets each edge carry a
// reciprocal slot index. Edges are symmetric: a partnership occupies
// one slot on each side, and every mutation changes both. Connecting or
// tearing down an edge therefore never searches or shifts the far
// peer's memory; it writes one edge slot, one partner slot and the
// list head. No ordered view is maintained on mutation: the ascending-ID
// reads are sorted when asked for, and the supplier order is repaired
// by the peer's own RankSuppliers.
//
// The free list is a LIFO chain through the edge column: freeHead is
// the last slot freed, each free slot's edge id names the one freed
// before it, and nfree counts the chain, so its tail needs no sentinel.
type partnerStore struct {
	partners []Partner
	edges    []edge
	freeHead int32
	nfree    int32
	// order is the supplier ranking as of the last RankSuppliers: every
	// slot live at that call, best first. Mutations leave it alone; the
	// next ranking drops the slots freed or refilled since. A byte per
	// slot holds because a ranking peer has at most MaxRankedPartners.
	order []uint8
}

// reset empties the storage for reuse. The slots hold no references,
// and allocSlot appends zeroed ones, so nothing needs clearing.
func (s *partnerStore) reset() {
	s.partners = s.partners[:0]
	s.edges = s.edges[:0]
	s.nfree = 0
	s.order = s.order[:0]
}

// ID returns the peer's identity — its IP address, as in the traces.
func (p *Peer) ID() isp.Addr { return p.Host.Addr }

// Handle returns the peer's slot in its table, or NoPeer after removal.
func (p *Peer) Handle() Handle { return p.h }

// Table returns the table holding the peer's hot state.
func (p *Peer) Table() *Table { return p.tab }

// RateKbps returns the streaming rate of the peer's channel.
func (p *Peer) RateKbps() float64 { return p.tab.rate[p.h] }

// IsServer reports whether the peer is a UUSee origin streaming server:
// servers never depart, never consume, and never report. The flag is
// mirrored on the peer (srv) so partner-list paths read it without the
// table indirection; the column copy feeds the exchange kernels.
func (p *Peer) IsServer() bool { return p.srv }

// MarkServer flags the peer as an origin server.
func (p *Peer) MarkServer() {
	p.tab.server[p.h] = true
	p.srv = true
}

// Depth is the peer's hop distance from the origin servers over the
// current supply mesh; only the tree-push ablation consults it.
func (p *Peer) Depth() int { return int(p.tab.depth[p.h]) }

// SetDepth records the peer's supply-mesh depth.
func (p *Peer) SetDepth(d int) { p.tab.depth[p.h] = int32(d) }

// QualityEWMA returns the smoothed playback quality (received rate over
// stream rate, capped at 1).
func (p *Peer) QualityEWMA() float64 { return p.tab.quality[p.h] }

// SetQualityEWMA overrides the quality EWMA (tests and scenario setup).
func (p *Peer) SetQualityEWMA(q float64) { p.tab.quality[p.h] = q }

// LastSentKbps returns the aggregate instantaneous send throughput
// measured over the previous tick, as reported to the trace server.
func (p *Peer) LastSentKbps() float64 { return p.tab.lastSent[p.h] }

// SetLastSentKbps overrides the measured send throughput (tests).
func (p *Peer) SetLastSentKbps(v float64) { p.tab.lastSent[p.h] = v }

// LastRecvKbps returns the aggregate instantaneous receive throughput
// measured over the previous tick.
func (p *Peer) LastRecvKbps() float64 { return p.tab.lastRecv[p.h] }

// TickRecvSeg returns the segments received during the current exchange
// tick. The stream package owns and resets the accumulator.
func (p *Peer) TickRecvSeg() float64 { return p.tab.tickRecv[p.h] }

// TickSentSeg returns the segments sent during the current exchange
// tick.
func (p *Peer) TickSentSeg() float64 { return p.tab.tickSent[p.h] }

// PartnerCount returns the size of the partner list.
func (p *Peer) PartnerCount() int { return len(p.edges) - int(p.nfree) }

// slotOf returns the storage slot of the live edge to id. The scan
// reads only the compact edge column, where IDs are immutable for a
// partnership's lifetime.
func (p *Peer) slotOf(id isp.Addr) (int32, bool) {
	for s := range p.edges {
		if e := &p.edges[s]; e.id == id && e.live {
			return int32(s), true
		}
	}
	return 0, false
}

// Partner returns the partner entry for id, or nil. The pointer aliases
// the peer's partner storage and is invalidated by the next
// partner-list mutation.
func (p *Peer) Partner(id isp.Addr) *Partner {
	if s, ok := p.slotOf(id); ok {
		return &p.partners[s]
	}
	return nil
}

// Slot returns the partner entry in storage slot s, as named by the far
// side's Recip. Like Partner, the pointer aliases the peer's storage.
func (p *Peer) Slot(s int32) *Partner { return &p.partners[s] }

// byID returns the peer's live edges as id<<32|slot keys in ascending
// ID order, sorted on demand into the table's scratch buffer. The
// result is valid until the next byID call on any peer of the table.
func (p *Peer) byID() []uint64 {
	keys := p.tab.idKeys[:0]
	for s := range p.edges {
		if e := &p.edges[s]; e.live {
			keys = append(keys, uint64(e.id)<<32|uint64(s))
		}
	}
	slices.Sort(keys)
	p.tab.idKeys = keys
	return keys
}

// appendLiveIDs appends the live partner IDs other than skip to out and
// sorts them ascending.
func (p *Peer) appendLiveIDs(out []isp.Addr, skip isp.Addr) []isp.Addr {
	for s := range p.edges {
		if e := &p.edges[s]; e.live && e.id != skip {
			out = append(out, e.id)
		}
	}
	slices.Sort(out)
	return out
}

// PartnerIDs returns the partner IDs in ascending order. The slice is
// freshly allocated; the report path walks the list via Partners
// instead.
func (p *Peer) PartnerIDs() []isp.Addr {
	// A peer is never its own partner.
	return p.appendLiveIDs(make([]isp.Addr, 0, p.PartnerCount()), p.ID())
}

// PartnerIDAt returns the i-th live partner ID in ascending order,
// 0 ≤ i < PartnerCount.
func (p *Peer) PartnerIDAt(i int) isp.Addr { return isp.Addr(p.byID()[i] >> 32) }

// Partners calls fn for every live partner in ascending ID order. fn
// must not mutate partner lists or call Partners or PartnerIDAt on a
// peer of the same table: the walk runs over the table's sort scratch.
func (p *Peer) Partners(fn func(*Partner)) {
	for _, k := range p.byID() {
		fn(&p.partners[uint32(k)])
	}
}

// allocSlot returns a free storage slot, the last one freed, growing
// the storage if the free list is empty.
func (p *Peer) allocSlot() int32 {
	if p.nfree > 0 {
		s := p.freeHead
		p.freeHead = int32(p.edges[s].id)
		p.nfree--
		return s
	}
	// Fresh storage jumps straight to the default partner cap: peers
	// bootstrap tens of partners at once, so doubling up from nil would
	// pay several reallocations per joining peer, and freed slots are
	// reused at once, so a regular peer's storage never outgrows it.
	if len(p.partners) == cap(p.partners) && cap(p.partners) < _slotHint {
		p.partners = slices.Grow(p.partners, _slotHint-len(p.partners))
		p.edges = slices.Grow(p.edges, _slotHint-len(p.edges))
	}
	p.partners = append(p.partners, Partner{})
	p.edges = append(p.edges, edge{})
	return int32(len(p.partners) - 1)
}

// _slotHint is the initial partner-storage capacity:
// DefaultConfig().MaxPartners.
const _slotHint = 80

// fill writes the edge to q into slot. It does not check limits;
// Connect does.
func (p *Peer) fill(slot int32, q *Peer, link netsim.Link, recip int32) {
	score := link.Score()
	if link.SameISP {
		score *= 1 + p.LocalityBias
	}
	// Field-by-field writes: freed slots keep stale counters, so every
	// field is (re)set here.
	pt := &p.partners[slot]
	pt.ID, pt.Port, pt.CapacityKbps = q.ID(), q.Port, link.CapacityKbps
	pt.WinSent, pt.WinRecv = 0, 0
	pt.peer, pt.recip = q.h, recip
	p.edges[slot] = edge{score: score, id: q.ID(), live: true, fresh: true}
}

// release frees one side of an edge: the slot goes straight back on the
// free list, at its head. Freed entries are marked in the edge column,
// not zeroed — fill rewrites every field on reuse, and nothing reads
// free slots except ResetWindow, which writes them harmlessly, and the
// live-edge scans, which skip them.
func (p *Peer) release(slot int32) {
	e := &p.edges[slot]
	e.live = false
	e.id = isp.Addr(p.freeHead)
	p.freeHead = slot
	p.nfree++
}

// releaseFar frees the far side of the edge in pt, reached through the
// table's handle column and the reciprocal slot.
func (p *Peer) releaseFar(pt *Partner) { p.tab.peers[pt.peer].release(pt.recip) }

// HasPartner reports whether id is in the partner list.
func (p *Peer) HasPartner(id isp.Addr) bool {
	_, ok := p.slotOf(id)
	return ok
}

// AcceptsConnection reports whether the peer will accept one more
// partner. Origin servers always accept; regular peers refuse beyond
// MaxPartners, mirroring the deployed client's connection cap.
func (p *Peer) AcceptsConnection(cfg Config) bool {
	if p.IsServer() {
		return true
	}
	return p.PartnerCount() < cfg.MaxPartners
}

// SpareUploadKbps estimates unused upload capacity from the last tick's
// aggregate sending throughput — the quantity each UUSee peer
// continuously monitors to decide whether to volunteer at the tracker.
func (p *Peer) SpareUploadKbps() float64 {
	spare := p.Host.Cap.UpKbps - p.LastSentKbps()
	if spare < 0 {
		return 0
	}
	return spare
}

// Ranked pairs a partner with its precomputed selection score, letting
// the exchange hot path rank suppliers into a reusable buffer.
type Ranked struct {
	Pt    *Partner
	Score float64
}

// MaxRankedPartners is the most slots a peer that ranks suppliers may
// hold, and so the largest usable Config.MaxPartners: the supplier order
// indexes slots by byte. Servers never rank, so their lists are not
// bounded by it.
const MaxRankedPartners = 256

// RankSuppliers appends up to k partners ranked by link score (best
// first, ties broken by ID) to dst and returns it — the "most suitable
// peers from which it actually requests media blocks". The peer's
// supplier order is repaired, not rebuilt: the slots freed or refilled
// since the last call leave it, the slots filled since are
// insertion-sorted into a run of their own, and the two runs are merged.
// The call writes only the receiver's own order and fresh flags, so
// shard workers may rank distinct peers concurrently; it allocates only
// when the order outgrows its storage or dst lacks room for k entries.
// Servers return nothing: they are sources, never receivers.
func (p *Peer) RankSuppliers(dst []Ranked, k int) []Ranked {
	if p.srv || k <= 0 {
		return dst
	}
	edges := p.edges
	if len(edges) > MaxRankedPartners {
		panic("protocol: a ranking peer holds more than MaxRankedPartners slots")
	}
	kept := p.order[:0]
	for _, s := range p.order {
		if e := &edges[s]; e.live && !e.fresh {
			kept = append(kept, s)
		}
	}
	var run [MaxRankedPartners]uint8
	n := 0
	for s := range edges {
		e := &edges[s]
		if !e.fresh {
			continue
		}
		e.fresh = false
		if !e.live {
			continue
		}
		i := n
		for ; i > 0 && e.outranks(&edges[run[i-1]]); i-- {
			run[i] = run[i-1]
		}
		run[i] = uint8(s)
		n++
	}
	m := len(kept)
	if cap(kept) < m+n {
		kept = slices.Grow(kept, cap(edges)-m)
	}
	// Merge from the back, so the kept run is shifted in place and only
	// the fresh run needs its own buffer.
	order := kept[:m+n]
	for i, j, w := m-1, n-1, m+n-1; j >= 0; w-- {
		if i >= 0 && edges[run[j]].outranks(&edges[order[i]]) {
			order[w] = order[i]
			i--
		} else {
			order[w] = run[j]
			j--
		}
	}
	p.order = order
	for _, s := range order[:min(k, len(order))] {
		dst = append(dst, Ranked{Pt: &p.partners[s], Score: edges[s].score})
	}
	return dst
}

// ResetWindow clears the per-report-window segment counters, called after
// the peer emits a trace report. Clearing free slots too is harmless
// (fill rewrites them) and keeps the loop branch-free.
func (p *Peer) ResetWindow() {
	for i := range p.partners {
		p.partners[i].WinSent, p.partners[i].WinRecv = 0, 0
	}
}

// UpdateQuality folds one tick's delivered fraction into the EWMA.
func (p *Peer) UpdateQuality(fraction float64) {
	if fraction > 1 {
		fraction = 1
	}
	const alpha = 0.3
	q := &p.tab.quality[p.h]
	*q = (1-alpha)*(*q) + alpha*fraction
}

// Recommend samples up to n of the peer's partners, excluding the
// requester — the "recommend known partners to each other" mechanism.
// Sampling is uniform over the partner list, shuffled from ascending ID
// order so the draw depends only on the list's contents. The result is
// drawn from a table-owned scratch buffer: it is valid until the next
// Recommend on any peer of the table.
func (p *Peer) Recommend(rng *rand.Rand, requester isp.Addr, n int) []isp.Addr {
	candidates := p.appendLiveIDs(p.tab.recIDs[:0], requester)
	p.tab.recIDs = candidates
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	if len(candidates) > n {
		candidates = candidates[:n]
	}
	return candidates
}

// Connect establishes a partnership between two peers over the given
// link, enforcing acceptance rules. It reports whether the connection was
// made. Self-connections, duplicates, cross-channel pairs, and refusals
// all fail, as does a pair from two tables: a partner is addressed by
// its handle in the table both peers share. Edges are symmetric, so the
// duplicate check reads only p's side and q's side costs one free-slot
// fill.
func Connect(p, q *Peer, link netsim.Link, cfg Config) bool {
	if p == nil || q == nil || p == q || p.ID() == q.ID() || p.tab != q.tab {
		return false
	}
	if p.Channel != q.Channel && !p.IsServer() && !q.IsServer() {
		return false
	}
	if p.HasPartner(q.ID()) || !p.AcceptsConnection(cfg) || !q.AcceptsConnection(cfg) {
		return false
	}
	ps, qs := p.allocSlot(), q.allocSlot()
	p.fill(ps, q, link, qs)
	q.fill(qs, p, link, ps)
	return true
}

// Disconnect tears down a partnership from both sides; the far side is
// reached through the reciprocal slot, without a search.
func Disconnect(p, q *Peer) {
	if p == nil || q == nil {
		return
	}
	if s, ok := p.slotOf(q.ID()); ok {
		p.releaseFar(&p.partners[s])
		p.release(s)
	}
}

// DisconnectAll tears down every partnership of p in one sweep: each
// partner's reciprocal slot is freed directly through the stored index,
// and p's own storage is cleared wholesale. Per-partner effects are
// independent, so the result is identical to disconnecting each edge
// one at a time.
func DisconnectAll(p *Peer) {
	if p == nil {
		return
	}
	for s := range p.edges {
		if p.edges[s].live {
			p.releaseFar(&p.partners[s])
		}
	}
	p.partnerStore.reset()
}
