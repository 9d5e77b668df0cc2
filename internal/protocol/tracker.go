package protocol

import (
	"math/rand"
	"slices"

	"github.com/magellan-p2p/magellan/internal/isp"
)

// Tracker is a UUSee tracking server for a set of channels. It maintains,
// per channel, the member list and the subset of peers that have
// volunteered as available for new upload connections, and bootstraps new
// peers "with peers randomly selected from this set" (Sec. 3.1).
//
// Peers are named by their Table handle. A handle is reused once its
// peer leaves the table, so a peer must Leave every channel it joined
// before Table.Remove frees its handle: a member entry left behind would
// name the handle's next occupant.
//
// Tracker is not safe for concurrent use; the simulator drives it from
// its single event loop.
type Tracker struct {
	cfg Config
	rng *rand.Rand

	channels map[string]*channelState
	isps     map[Handle]isp.ISP

	// stamp, indexed by handle, marks the handles one Bootstrap call has
	// excluded or drawn: a handle is taken when its stamp equals gen,
	// which each call advances. It covers every handle that joined.
	stamp []uint32
	gen   uint32

	// bootOut is the reused Bootstrap result buffer: one bootstrap per
	// join at paper scale makes a per-call slice a top allocation
	// source, and the result is always consumed immediately.
	bootOut []Handle
}

type channelState struct {
	members   *handleSet
	available *handleSet
	availISP  map[isp.ISP]*handleSet // maintained only when LocalityBias > 0
}

// NewTracker builds a tracker.
func NewTracker(cfg Config, rng *rand.Rand) *Tracker {
	return &Tracker{
		cfg:      cfg.WithDefaults(),
		rng:      rng,
		channels: make(map[string]*channelState),
		isps:     make(map[Handle]isp.ISP),
	}
}

func (t *Tracker) channel(name string) *channelState {
	cs, ok := t.channels[name]
	if !ok {
		cs = &channelState{members: newHandleSet(), available: newHandleSet()}
		if t.cfg.LocalityBias > 0 {
			cs.availISP = make(map[isp.ISP]*handleSet, isp.NumISPs)
		}
		t.channels[name] = cs
	}
	return cs
}

// cover grows the stamp column to include h.
func (t *Tracker) cover(h Handle) {
	if n := int(h) + 1; n > len(t.stamp) {
		t.stamp = append(t.stamp, make([]uint32, n-len(t.stamp))...)
	}
}

// SetISP records a peer's ISP, enabling locality-biased bootstrap when
// the tracker is configured for it. The deployed UUSee tracker never
// learned ISPs; this feeds the paper's future-work experiment.
func (t *Tracker) SetISP(h Handle, p isp.ISP) {
	if t.cfg.LocalityBias > 0 && p.Valid() {
		t.isps[h] = p
	}
}

// Join registers a peer in a channel.
func (t *Tracker) Join(channel string, h Handle) {
	t.cover(h)
	t.channel(channel).members.add(h)
}

// Leave removes a peer from a channel and from the availability set, and
// forgets its ISP, so the handle's next occupant starts clean.
func (t *Tracker) Leave(channel string, h Handle) {
	cs := t.channel(channel)
	cs.members.remove(h)
	cs.available.remove(h)
	if cs.availISP != nil {
		if p, ok := t.isps[h]; ok {
			if set := cs.availISP[p]; set != nil {
				set.remove(h)
			}
		}
	}
	delete(t.isps, h)
}

// SetAvailable records whether a peer has spare upload capacity and is
// willing to accept new connections.
func (t *Tracker) SetAvailable(channel string, h Handle, available bool) {
	cs := t.channel(channel)
	if !cs.members.contains(h) {
		return
	}
	if available {
		cs.available.add(h)
	} else {
		cs.available.remove(h)
	}
	if cs.availISP == nil {
		return
	}
	p, ok := t.isps[h]
	if !ok {
		return
	}
	set := cs.availISP[p]
	if set == nil {
		set = newHandleSet()
		cs.availISP[p] = set
	}
	if available {
		set.add(h)
	} else {
		set.remove(h)
	}
}

// Bootstrap returns up to n candidate partners for a joining or starving
// peer: a random sample of available peers first, padded with random
// channel members if availability is scarce. The requester itself is
// excluded. The tracker is ISP-oblivious, as the paper emphasises — any
// ISP locality in the topology must emerge later from peer selection.
//
// The returned slice is owned by the tracker and valid until the next
// Bootstrap call. The requester and every drawn candidate are stamped
// with the call's generation, so exclusion costs one column read.
func (t *Tracker) Bootstrap(channel string, self Handle, n int) []Handle {
	if n <= 0 {
		n = MaxBootstrap
	}
	cs := t.channel(channel)
	t.bootOut = t.bootOut[:0]
	t.gen++
	if t.gen == 0 {
		// The counter wrapped: a stamp from 2³² calls ago would read as
		// taken, so clear them all.
		clear(t.stamp)
		t.gen = 1
	}
	t.cover(self)
	t.stamp[self] = t.gen

	// Future-work extension: draw a configured fraction of the sample
	// from the requester's own ISP first.
	if t.cfg.LocalityBias > 0 && cs.availISP != nil {
		if own, ok := t.isps[self]; ok {
			if set := cs.availISP[own]; set != nil {
				t.draw(set, int(float64(n)*t.cfg.LocalityBias+0.5))
			}
		}
	}

	t.draw(cs.available, n-len(t.bootOut))
	if len(t.bootOut) < n {
		t.draw(cs.members, n-len(t.bootOut))
	}
	return t.bootOut
}

// draw appends up to n distinct handles of s drawn uniformly to bootOut,
// skipping the handles this Bootstrap call has stamped and stamping the
// ones it takes. It uses a partial Fisher–Yates over a reused scratch
// copy when the set is small, or rejection sampling when n is much
// smaller than the set.
func (t *Tracker) draw(s *handleSet, n int) {
	if n <= 0 || len(s.ids) == 0 {
		return
	}
	if len(s.ids) <= 4*n {
		s.scratch = append(s.scratch[:0], s.ids...)
		t.rng.Shuffle(len(s.scratch), func(i, j int) { s.scratch[i], s.scratch[j] = s.scratch[j], s.scratch[i] })
		for _, h := range s.scratch {
			if t.take(h) {
				if n--; n == 0 {
					break
				}
			}
		}
		return
	}

	// n ≪ set size: rejection sampling terminates quickly; the attempt
	// cap guards degenerate exclusion sets.
	for attempts, limit := 0, 20*n; n > 0 && attempts < limit; attempts++ {
		if t.take(s.ids[t.rng.Intn(len(s.ids))]) {
			n--
		}
	}
}

// take appends h to bootOut and stamps it, unless this Bootstrap call
// has stamped it already.
func (t *Tracker) take(h Handle) bool {
	if t.stamp[h] == t.gen {
		return false
	}
	t.stamp[h] = t.gen
	t.bootOut = append(t.bootOut, h)
	return true
}

// MemberCount returns the channel's registered peer count.
func (t *Tracker) MemberCount(channel string) int {
	return t.channel(channel).members.len()
}

// AvailableCount returns the channel's availability-set size.
func (t *Tracker) AvailableCount(channel string) int {
	return t.channel(channel).available.len()
}

// Channels returns the names of channels with at least one member,
// sorted so the listing is stable across runs of the same seed.
func (t *Tracker) Channels() []string {
	var out []string
	for name, cs := range t.channels {
		if cs.members.len() > 0 {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

// handleSet is a set of handles with O(1) add/remove/uniform-sample.
type handleSet struct {
	ids []Handle
	idx map[Handle]int
	// scratch is the reused shuffle buffer for the small-set sample
	// path (bounded by the 4n threshold, so it stays small).
	scratch []Handle
}

func newHandleSet() *handleSet {
	return &handleSet{idx: make(map[Handle]int)}
}

func (s *handleSet) len() int { return len(s.ids) }

func (s *handleSet) contains(h Handle) bool {
	_, ok := s.idx[h]
	return ok
}

func (s *handleSet) add(h Handle) {
	if _, ok := s.idx[h]; ok {
		return
	}
	s.idx[h] = len(s.ids)
	s.ids = append(s.ids, h)
}

func (s *handleSet) remove(h Handle) {
	i, ok := s.idx[h]
	if !ok {
		return
	}
	last := len(s.ids) - 1
	s.ids[i] = s.ids[last]
	s.idx[s.ids[i]] = i
	s.ids = s.ids[:last]
	delete(s.idx, h)
}
