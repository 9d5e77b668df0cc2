package trace

import (
	"math"
	"slices"
)

// noEpoch marks "nothing seen yet"; every real epoch index is far above.
const noEpoch = -1 << 62

// Closer decides when an epoch is complete for the analyzers that see
// reports as they arrive rather than from a sealed store. It holds one
// caller-defined state S per open epoch. The watermark is the smallest of
// its shards' newest epochs; whenever it rises, every open epoch below the
// watermark minus the lateness closes, in ascending order. Reports at or
// behind the closed frontier, or from a shard outside the fan-in, are
// stragglers: counted, never folded in.
//
// core.AnalyzeStream runs it with one shard and lateness 1 (an epoch
// closes once a report two epochs newer arrives); the live analyzer runs
// it with the ingest fan-in and lateness 0 (an epoch closes once every
// shard has seen a later one).
//
// A Closer is not safe for concurrent use.
type Closer[S any] struct {
	lateness   int64
	newest     []int64 // per shard
	open       map[int64]*S
	frontier   int64 // every epoch at or below it is closed
	stragglers uint64
}

// NewCloser returns a closer over shards report sources (at least one).
func NewCloser[S any](shards int, lateness int64) *Closer[S] {
	c := &Closer[S]{
		lateness: lateness,
		newest:   make([]int64, max(shards, 1)),
		open:     make(map[int64]*S),
		frontier: noEpoch,
	}
	for i := range c.newest {
		c.newest[i] = noEpoch
	}
	return c
}

// Observe routes one report of epoch from shard. When the report raises
// its shard's newest epoch, the epochs it completes are handed to close
// first. Observe then returns the state of the report's epoch, opened
// zeroed if it is new, or nil for a straggler.
func (c *Closer[S]) Observe(shard int, epoch int64, close func(epoch int64, s *S)) *S {
	if shard < 0 || shard >= len(c.newest) {
		c.stragglers++
		return nil
	}
	if epoch > c.newest[shard] {
		c.newest[shard] = epoch
		c.closeBelow(slices.Min(c.newest)-c.lateness, close)
	}
	if epoch <= c.frontier {
		c.stragglers++
		return nil
	}
	s := c.open[epoch]
	if s == nil {
		s = new(S)
		c.open[epoch] = s
	}
	return s
}

// Drain closes every open epoch in ascending order and moves the frontier
// past them: later reports for those epochs are stragglers, newer ones
// open fresh state.
func (c *Closer[S]) Drain(close func(epoch int64, s *S)) {
	if open := c.below(math.MaxInt64); len(open) > 0 {
		c.closeBelow(open[len(open)-1]+1, close)
	}
}

// closeBelow closes every open epoch below limit, in ascending order.
func (c *Closer[S]) closeBelow(limit int64, close func(epoch int64, s *S)) {
	c.frontier = max(c.frontier, limit-1)
	for _, e := range c.below(limit) {
		s := c.open[e]
		delete(c.open, e)
		close(e, s)
	}
}

// below returns the open epochs below limit, ascending.
func (c *Closer[S]) below(limit int64) []int64 {
	var epochs []int64
	for e := range c.open {
		if e < limit {
			epochs = append(epochs, e)
		}
	}
	slices.Sort(epochs)
	return epochs
}

// Each calls fn for every open epoch, in ascending order.
func (c *Closer[S]) Each(fn func(epoch int64, s *S)) {
	for _, e := range c.below(math.MaxInt64) {
		fn(e, c.open[e])
	}
}

// Len returns the number of open epochs.
func (c *Closer[S]) Len() int { return len(c.open) }

// Stragglers returns how many reports were dropped as stragglers.
func (c *Closer[S]) Stragglers() uint64 { return c.stragglers }
