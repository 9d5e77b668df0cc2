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
// Tracker is not safe for concurrent use; the simulator drives it from
// its single event loop.
type Tracker struct {
	cfg Config
	rng *rand.Rand

	channels map[string]*channelState
	isps     map[isp.Addr]isp.ISP

	// bootOut is the reused Bootstrap result buffer: one bootstrap per
	// join at paper scale makes the per-call slice+map scratch a top
	// allocation source, and the result is always consumed immediately.
	bootOut []isp.Addr
}

type channelState struct {
	members   *addrSet
	available *addrSet
	availISP  map[isp.ISP]*addrSet // maintained only when LocalityBias > 0
}

// NewTracker builds a tracker.
func NewTracker(cfg Config, rng *rand.Rand) *Tracker {
	return &Tracker{
		cfg:      cfg.WithDefaults(),
		rng:      rng,
		channels: make(map[string]*channelState),
		isps:     make(map[isp.Addr]isp.ISP),
	}
}

func (t *Tracker) channel(name string) *channelState {
	cs, ok := t.channels[name]
	if !ok {
		cs = &channelState{members: newAddrSet(), available: newAddrSet()}
		if t.cfg.LocalityBias > 0 {
			cs.availISP = make(map[isp.ISP]*addrSet, isp.NumISPs)
		}
		t.channels[name] = cs
	}
	return cs
}

// SetISP records a peer's ISP, enabling locality-biased bootstrap when
// the tracker is configured for it. The deployed UUSee tracker never
// learned ISPs; this feeds the paper's future-work experiment.
func (t *Tracker) SetISP(id isp.Addr, p isp.ISP) {
	if t.cfg.LocalityBias > 0 && p.Valid() {
		t.isps[id] = p
	}
}

// Join registers a peer in a channel.
func (t *Tracker) Join(channel string, id isp.Addr) {
	t.channel(channel).members.add(id)
}

// Leave removes a peer from a channel and from the availability set.
func (t *Tracker) Leave(channel string, id isp.Addr) {
	cs := t.channel(channel)
	cs.members.remove(id)
	cs.available.remove(id)
	if cs.availISP != nil {
		if p, ok := t.isps[id]; ok {
			if set := cs.availISP[p]; set != nil {
				set.remove(id)
			}
		}
	}
	delete(t.isps, id)
}

// SetAvailable records whether a peer has spare upload capacity and is
// willing to accept new connections.
func (t *Tracker) SetAvailable(channel string, id isp.Addr, available bool) {
	cs := t.channel(channel)
	if !cs.members.contains(id) {
		return
	}
	if available {
		cs.available.add(id)
	} else {
		cs.available.remove(id)
	}
	if cs.availISP == nil {
		return
	}
	p, ok := t.isps[id]
	if !ok {
		return
	}
	set := cs.availISP[p]
	if set == nil {
		set = newAddrSet()
		cs.availISP[p] = set
	}
	if available {
		set.add(id)
	} else {
		set.remove(id)
	}
}

// Bootstrap returns up to n candidate partners for a joining or starving
// peer: a random sample of available peers first, padded with random
// channel members if availability is scarce. The requester itself is
// excluded. The tracker is ISP-oblivious, as the paper emphasises — any
// ISP locality in the topology must emerge later from peer selection.
//
// The returned slice is owned by the tracker and valid until the next
// Bootstrap call. Samples are deduplicated by scanning the result
// itself — n is small, so a linear scan beats per-call set scratch.
func (t *Tracker) Bootstrap(channel string, self isp.Addr, n int) []isp.Addr {
	if n <= 0 {
		n = MaxBootstrap
	}
	cs := t.channel(channel)
	t.bootOut = t.bootOut[:0]

	// Future-work extension: draw a configured fraction of the sample
	// from the requester's own ISP first.
	if t.cfg.LocalityBias > 0 && cs.availISP != nil {
		if own, ok := t.isps[self]; ok {
			if set := cs.availISP[own]; set != nil {
				local := int(float64(n)*t.cfg.LocalityBias + 0.5)
				t.bootOut = set.sample(t.rng, local, self, t.bootOut)
			}
		}
	}

	t.bootOut = cs.available.sample(t.rng, n-len(t.bootOut), self, t.bootOut)
	if len(t.bootOut) < n {
		t.bootOut = cs.members.sample(t.rng, n-len(t.bootOut), self, t.bootOut)
	}
	return t.bootOut
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

// addrSet is a set of addresses with O(1) add/remove/uniform-sample.
type addrSet struct {
	ids []isp.Addr
	idx map[isp.Addr]int
	// scratch is the reused shuffle buffer for the small-set sample
	// path (bounded by the 4n threshold, so it stays small).
	scratch []isp.Addr
}

func newAddrSet() *addrSet {
	return &addrSet{idx: make(map[isp.Addr]int)}
}

func (s *addrSet) len() int { return len(s.ids) }

func (s *addrSet) contains(id isp.Addr) bool {
	_, ok := s.idx[id]
	return ok
}

func (s *addrSet) add(id isp.Addr) {
	if _, ok := s.idx[id]; ok {
		return
	}
	s.idx[id] = len(s.ids)
	s.ids = append(s.ids, id)
}

func (s *addrSet) remove(id isp.Addr) {
	i, ok := s.idx[id]
	if !ok {
		return
	}
	last := len(s.ids) - 1
	s.ids[i] = s.ids[last]
	s.idx[s.ids[i]] = i
	s.ids = s.ids[:last]
	delete(s.idx, id)
}

// sample appends up to n distinct addresses drawn uniformly to dst,
// excluding self and anything already in dst, and returns dst. It uses
// a partial Fisher–Yates over a reused scratch copy when the set is
// small, or rejection sampling when n is much smaller than the set.
// Exclusion and in-call deduplication are one linear scan of dst —
// bootstrap batches are small, so the scan is cheaper than set scratch.
func (s *addrSet) sample(rng *rand.Rand, n int, self isp.Addr, dst []isp.Addr) []isp.Addr {
	if n <= 0 || len(s.ids) == 0 {
		return dst
	}
	excluded := func(id isp.Addr) bool {
		return id == self || slices.Contains(dst, id)
	}
	start := len(dst)

	if len(s.ids) <= 4*n {
		s.scratch = append(s.scratch[:0], s.ids...)
		rng.Shuffle(len(s.scratch), func(i, j int) { s.scratch[i], s.scratch[j] = s.scratch[j], s.scratch[i] })
		for _, id := range s.scratch {
			if excluded(id) {
				continue
			}
			dst = append(dst, id)
			if len(dst)-start == n {
				break
			}
		}
		return dst
	}

	// n ≪ set size: rejection sampling terminates quickly; the attempt
	// cap guards degenerate exclusion sets.
	for attempts := 0; len(dst)-start < n && attempts < 20*n; attempts++ {
		id := s.ids[rng.Intn(len(s.ids))]
		if excluded(id) {
			continue
		}
		dst = append(dst, id)
	}
	return dst
}
