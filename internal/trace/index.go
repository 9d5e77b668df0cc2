//magellan:hotpath
package trace

import (
	"cmp"
	"slices"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/obs"
	"github.com/magellan-p2p/magellan/internal/radix"
)

// Index is an immutable, columnar view of a Store's epochs, built once
// by Store.Seal. For every epoch it holds EpochColumns' output: the
// deduplicated latest-by-peer report list sorted by address, the
// matching address column, and the sorted set of all visible peers
// (reporters plus their partners). Analyzers consume these as shared
// sub-slices, so assembling a per-epoch view costs no allocation and no
// re-sorting — the zero-rebuild contract behind core.Analyze's hot path.
//
// All slices returned by Index methods alias the index's backing arrays
// and must be treated as read-only.
type Index struct {
	interval time.Duration
	epochs   []int64       // ascending
	pos      map[int64]int // epoch → position in epochs

	reports []Report   // latest-by-peer, grouped by epoch, sorted by Addr
	addrs   []isp.Addr // addrs[i] == reports[i].Addr
	offsets []int      // epoch i's reports are reports[offsets[i]:offsets[i+1]]

	all    []isp.Addr // distinct visible peers per epoch, sorted
	allOff []int      // epoch i's peers are all[allOff[i]:allOff[i+1]]
}

// Seal builds (or returns the cached) Index over the store's current
// contents. The index is a consistent snapshot: reports submitted after
// Seal returns are not reflected in it, but the next Seal call detects
// the change and builds a fresh index. Sealing an unchanged store is
// O(1), which lets every analyzer call Seal independently and share one
// index.
func (s *Store) Seal() *Index {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.idx != nil && s.idxCount == s.count {
		return s.idx
	}
	s.idx = buildIndex(s.interval, s.epochs, s.journal)
	s.idxCount = s.count
	return s.idx
}

// buildIndex does the one-time columnar precompute, one EpochColumns
// pass per epoch. When a journal is attached it records the seal plane's
// verdicts: superseded for every report the latest-by-peer dedup replaced
// (in arrival order) and indexed for every report that made the index (in
// address order) — both deterministic, since epochs are walked sorted and
// each epoch's reports sit in arrival order.
func buildIndex(interval time.Duration, epochs map[int64][]Report, j *obs.Journal) *Index {
	keys := make([]int64, 0, len(epochs))
	total := 0
	for e, reports := range epochs {
		keys = append(keys, e)
		total += len(reports)
	}
	slices.Sort(keys)

	ix := &Index{
		interval: interval,
		epochs:   keys,
		pos:      make(map[int64]int, len(keys)),
		reports:  make([]Report, 0, total),
		addrs:    make([]isp.Addr, 0, total),
		offsets:  make([]int, len(keys)+1),
		allOff:   make([]int, len(keys)+1),
	}

	cols := NewEpochColumns()
	for i, e := range keys {
		ix.pos[e] = i
		cols.Reset()
		for k := range epochs[e] {
			if old, ok := cols.Add(epochs[e][k]); ok {
				j.Record(old.Time.UnixNano(), obs.StageSeal, obs.VerdictSuperseded,
					journalID(&old, interval))
			}
		}
		latest, addrs, all := cols.Columns()
		for k := range latest {
			j.Record(latest[k].Time.UnixNano(), obs.StageSeal, obs.VerdictIndexed,
				journalID(&latest[k], interval))
		}
		ix.reports = append(ix.reports, latest...)
		ix.addrs = append(ix.addrs, addrs...)
		ix.offsets[i+1] = len(ix.reports)
		ix.all = append(ix.all, all...)
		ix.allOff[i+1] = len(ix.all)
	}
	return ix
}

// EpochColumns builds one epoch's columns in the sealed index's layout
// from the epoch's reports, fed in arrival order. It is the only column
// builder: Seal builds every Index epoch with it, and the streaming and
// live analyzers build their per-epoch views with it, which is what keeps
// their per-epoch outputs byte-identical to the sealed index's.
//
// The builder owns its buffers and reuses them across Reset, so one
// builder serves any number of sequential epochs without reallocating.
// It is not safe for concurrent use.
type EpochColumns struct {
	slot    map[isp.Addr]int32 // address → position in latest
	latest  []Report
	addrs   []isp.Addr
	all     []isp.Addr
	scratch []isp.Addr // radix.Sort's ping-pong buffer for all
}

// NewEpochColumns returns an empty builder.
func NewEpochColumns() *EpochColumns {
	return &EpochColumns{slot: make(map[isp.Addr]int32)}
}

// Reset empties the builder for the next epoch, keeping its buffers.
func (c *EpochColumns) Reset() {
	clear(c.slot)
	clear(c.latest) // drop the previous epoch's partner lists
	c.latest = c.latest[:0]
}

// Add folds in the epoch's next report. A report from an address already
// held replaces the held one — the last submitted report wins — and Add
// returns the superseded report and true.
// Reports must not be added after Columns until the next Reset.
func (c *EpochColumns) Add(r Report) (superseded Report, ok bool) {
	if n, dup := c.slot[r.Addr]; dup {
		superseded, c.latest[n] = c.latest[n], r
		return superseded, true
	}
	c.slot[r.Addr] = int32(len(c.latest))
	c.latest = append(c.latest, r)
	return Report{}, false
}

// Len returns the number of distinct reporting peers added since Reset.
func (c *EpochColumns) Len() int { return len(c.latest) }

// Columns sorts the held reports by address and returns the epoch's
// columns: the latest report per peer, the aligned address column, and
// the sorted distinct set of every visible peer (reporters plus everyone
// on their partner lists). The peer column holds each address about ten
// times over before deduplication, so it is radix-sorted. The slices
// alias the builder's buffers; they are read-only and valid until the
// next Reset.
func (c *EpochColumns) Columns() (reports []Report, addrs, all []isp.Addr) {
	slices.SortFunc(c.latest, compareAddr)
	c.addrs, c.all = c.addrs[:0], c.all[:0]
	for i := range c.latest {
		c.addrs = append(c.addrs, c.latest[i].Addr)
		c.all = append(c.all, c.latest[i].Addr)
		for _, p := range c.latest[i].Partners {
			c.all = append(c.all, p.Addr)
		}
	}
	c.all = slices.Compact(radix.Sort(c.all, &c.scratch))
	return c.latest, c.addrs, c.all
}

func compareAddr(a, b Report) int { return cmp.Compare(a.Addr, b.Addr) }

// Interval returns the epoch width.
func (ix *Index) Interval() time.Duration { return ix.interval }

// NumEpochs returns the number of non-empty epochs.
func (ix *Index) NumEpochs() int { return len(ix.epochs) }

// Epochs returns the indexes of all non-empty epochs, ascending. The
// slice is a copy; callers may keep it.
func (ix *Index) Epochs() []int64 {
	return slices.Clone(ix.epochs)
}

// EpochStart returns the instant an epoch begins, in UTC.
func (ix *Index) EpochStart(epoch int64) time.Time {
	return time.Unix(0, epoch*int64(ix.interval)).UTC()
}

// Reports returns the epoch's latest-by-peer reports sorted by address
// (a shared sub-slice; read-only). Empty for unknown epochs.
func (ix *Index) Reports(epoch int64) []Report {
	i, ok := ix.pos[epoch]
	if !ok {
		return nil
	}
	return ix.reports[ix.offsets[i]:ix.offsets[i+1]]
}

// Reporters returns the epoch's reporting addresses in ascending order,
// aligned with Reports (a shared sub-slice; read-only).
func (ix *Index) Reporters(epoch int64) []isp.Addr {
	i, ok := ix.pos[epoch]
	if !ok {
		return nil
	}
	return ix.addrs[ix.offsets[i]:ix.offsets[i+1]]
}

// AllPeers returns every address visible in the epoch — reporters plus
// everyone on their partner lists — sorted ascending (a shared
// sub-slice; read-only).
func (ix *Index) AllPeers(epoch int64) []isp.Addr {
	i, ok := ix.pos[epoch]
	if !ok {
		return nil
	}
	return ix.all[ix.allOff[i]:ix.allOff[i+1]]
}
