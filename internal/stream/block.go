package stream

import (
	"time"

	"github.com/magellan-p2p/magellan/internal/protocol"
	"github.com/magellan-p2p/magellan/internal/workload"
)

// ModeBlock is the block-level exchange: instead of allocating fluid
// bandwidth, peers hold real sliding-window buffer maps (the ones the
// trace reports carry), advance a playback point, and request specific
// missing segments from partners whose buffer maps cover them — the
// actual CoolStreaming/UUSee mechanism. It is an order of magnitude more
// expensive per simulated second than ModeMesh and needs ticks short
// enough that a tick's worth of stream (rate × tick) fits inside the
// 64-segment window; use it for protocol-fidelity studies at small
// scale. Block mode always runs sequentially regardless of
// Config.Shards: segment delivery mutates shared buffer maps and
// budgets as it scans, so its loop carries a true order dependence.
const ModeBlock Mode = 3

// _playbackDelay is how far behind the live edge a joining peer sets
// its playback point, in segments. It must exceed one tick's worth of
// stream (rate × tick) or multi-hop relays cannot work: a second-hop
// peer would always request segments newer than anything its relay
// fetched last tick. The sim layer enforces the matching tick bound.
const _playbackDelay = 48

// _prefetchMargin is how far ahead of the playback point a peer tries to
// fill, in segments.
const _prefetchMargin = 56

// blockTick runs one block-mode exchange round. elapsed is total virtual
// time since the stream began (the live edge is at SegOf(rate, elapsed)).
func (e *Exchange) blockTick(tab *protocol.Table, peers []*protocol.Peer, dt, elapsed time.Duration) {
	cols := tab.Cols()

	// Budgets per supplier slot, in whole segments.
	if cap(e.budget) < tab.Cap() {
		e.budget = make([]float64, tab.Cap())
	}
	e.budget = e.budget[:tab.Cap()]
	for _, p := range peers {
		e.budget[p.Handle()] = SegOf(cols.Up[p.Handle()], dt)
	}

	// Servers hold every segment up to the live edge; their windows
	// trail it so buffer-map checks work uniformly.
	for _, p := range peers {
		if !cols.Server[p.Handle()] {
			continue
		}
		edge := uint64(SegOf(workload.StreamRateKbps, elapsed)) // every channel streams at this rate
		start := uint64(0)
		if edge > protocol.WindowSize {
			start = edge - protocol.WindowSize
		}
		p.Buffer.Reset(start)
		for seg := start; seg <= edge && seg < start+protocol.WindowSize; seg++ {
			p.Buffer.Set(seg)
		}
	}

	e.order = e.order[:0]
	for _, p := range peers {
		if !cols.Server[p.Handle()] {
			e.order = append(e.order, p)
		}
	}
	e.rng.Shuffle(len(e.order), func(i, j int) { e.order[i], e.order[j] = e.order[j], e.order[i] })

	missing := e.missing
	for _, p := range e.order {
		rate := cols.Rate[p.Handle()]
		if rate <= 0 {
			continue
		}
		liveEdge := SegOf(rate, elapsed)

		// Fresh peer: position the window behind the live edge.
		if !p.Buffer.Valid() {
			start := 0.0
			if liveEdge > _playbackDelay {
				start = liveEdge - _playbackDelay
			}
			p.Buffer.Reset(uint64(start))
			p.PlaySeg = start
		}

		// Fetch phase: request missing segments between playback and the
		// prefetch horizon from the best partners holding them.
		horizon := p.PlaySeg + _prefetchMargin
		if horizon > liveEdge {
			horizon = liveEdge
		}
		missing = missing[:0]
		missing = p.Buffer.Missing(missing, uint64(p.PlaySeg), uint64(horizon))
		if len(missing) > 0 {
			ranked := p.RankSuppliers(e.ranked[0][:0], protocol.TargetActive)
			perLink := e.perLink[:0]
			stripe := SegOf(rate, dt) * e.cfg.SpreadFraction * 2
			for _, rk := range ranked {
				perLink = append(perLink, min(SegOf(rk.Pt.CapacityKbps, dt), stripe))
			}
			for _, seg := range missing {
				for i, rk := range ranked {
					if perLink[i] < 1 {
						continue
					}
					rp, sh := rk.Pt, rk.Pt.Handle()
					sp := tab.Peer(sh)
					if e.budget[sh] < 1 || !sp.Buffer.Has(seg) {
						continue
					}
					// Deliver the segment, counting it on both ends of
					// the edge at once.
					p.Buffer.Set(seg)
					e.budget[sh]--
					perLink[i]--
					sp.Slot(rp.Recip()).WinSent++
					rp.WinRecv++
					cols.TickSent[sh]++
					cols.TickRecv[p.Handle()]++
					break
				}
			}
			e.ranked[0], e.perLink = ranked[:0], perLink[:0]
		}

		// Playback phase: advance at stream rate but keep the startup
		// delay behind the live edge (a player that creeps to the edge
		// has no prefetch room and stalls on every hiccup). Every
		// missing segment crossed is a loss; quality is playback
		// continuity.
		maxPlay := liveEdge - _playbackDelay
		newPlay := p.PlaySeg + SegOf(rate, dt)
		if newPlay > maxPlay {
			newPlay = maxPlay
		}
		played, lost := 0.0, 0.0
		for next := p.PlaySeg + 1; next <= newPlay; next++ {
			played++
			if !p.Buffer.Has(uint64(next)) {
				lost++
			}
		}
		if newPlay > p.PlaySeg {
			p.PlaySeg = newPlay
		}
		if played > 0 {
			p.UpdateQuality(1 - lost/played)
		}

		// Slide the window to track playback.
		if p.PlaySeg > 8 {
			p.Buffer.AdvanceTo(uint64(p.PlaySeg - 8))
		}
	}
	e.missing = missing

	for _, p := range peers {
		h := p.Handle()
		cols.LastRecv[h] = KbpsOf(cols.TickRecv[h], dt)
		cols.LastSent[h] = KbpsOf(cols.TickSent[h], dt)
	}
}
