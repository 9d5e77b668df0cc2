//magellan:hotpath
package trace

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
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
// slices, so assembling a per-epoch view costs no allocation and no
// re-sorting — the zero-rebuild contract behind core.Analyze's hot path.
//
// All slices returned by Index methods alias the index's backing arrays
// and must be treated as read-only.
type Index struct {
	interval time.Duration
	epochs   []int64       // ascending
	pos      map[int64]int // epoch → position in epochs
	cols     []epochCols   // cols[i] holds epochs[i]'s columns
}

// epochCols is one sealed epoch's columns, each in its own array.
type epochCols struct {
	reports []Report   // latest-by-peer, sorted by Addr
	addrs   []isp.Addr // addrs[i] == reports[i].Addr
	all     []isp.Addr // distinct visible peers, sorted
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
// pass per epoch. It cuts the ascending epochs into contiguous ranges of
// about equal report counts, one per GOMAXPROCS worker, and each worker
// seals its range with its own builder into its own arrays; the columns
// do not depend on the cut, so the index is the same for any worker
// count.
//
// When a journal is attached it records the seal plane's verdicts after
// the workers are done, walking the epochs in ascending order:
// superseded for every report the latest-by-peer dedup replaced (in
// arrival order), then indexed for every report that made the index (in
// address order). That is the order one goroutine sealing epoch after
// epoch would record, so the journal does not depend on the worker
// count either.
func buildIndex(interval time.Duration, epochs map[int64][]Report, j *obs.Journal) *Index {
	keys := make([]int64, 0, len(epochs))
	for e := range epochs {
		keys = append(keys, e)
	}
	slices.Sort(keys)

	ix := &Index{
		interval: interval,
		epochs:   keys,
		pos:      make(map[int64]int, len(keys)),
		cols:     make([]epochCols, len(keys)),
	}
	lists := make([][]Report, len(keys))
	for i, e := range keys {
		ix.pos[e] = i
		lists[i] = epochs[e]
	}
	var superseded [][]Report // per epoch, kept only for the journal
	if j != nil {
		superseded = make([][]Report, len(keys))
	}

	bounds := splitByReports(lists, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := 0; w+1 < len(bounds); w++ {
		wg.Add(1)
		go ix.sealRange(&wg, lists, superseded, bounds[w], bounds[w+1])
	}
	wg.Wait()

	if j != nil {
		for i := range ix.cols {
			for k := range superseded[i] {
				old := &superseded[i][k]
				j.Record(old.Time.UnixNano(), obs.StageSeal, obs.VerdictSuperseded, journalID(old, interval))
			}
			latest := ix.cols[i].reports
			for k := range latest {
				j.Record(latest[k].Time.UnixNano(), obs.StageSeal, obs.VerdictIndexed,
					journalID(&latest[k], interval))
			}
		}
	}
	return ix
}

// splitByReports cuts the epochs' report lists into at most workers
// contiguous, non-empty ranges of about equal report counts: range w is
// lists[bounds[w]:bounds[w+1]]. No lists give no ranges.
func splitByReports(lists [][]Report, workers int) (bounds []int) {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	workers = min(workers, len(lists))
	bounds = make([]int, 1, workers+1)
	seen := 0
	for i, l := range lists {
		seen += len(l)
		// Range w closes once the ranges so far hold w shares of the
		// reports, or when each range still to come needs one of the
		// epochs left.
		w := len(bounds)
		if w < workers && (seen*workers >= w*total || len(lists)-(i+1) < workers-w+1) {
			bounds = append(bounds, i+1)
		}
	}
	if len(lists) > 0 {
		bounds = append(bounds, len(lists))
	}
	return bounds
}

// sealRange is one Seal worker: it builds the columns of epochs lo…hi−1
// with its own builder, copies each epoch's out of it, and signals wg.
// When the journal needs them (superseded non-nil), the reports the
// dedup replaced in epoch i are appended to superseded[i].
func (ix *Index) sealRange(wg *sync.WaitGroup, lists, superseded [][]Report, lo, hi int) {
	defer wg.Done()
	cols := NewEpochColumns()
	for i := lo; i < hi; i++ {
		cols.Reset()
		for k := range lists[i] {
			if old, ok := cols.Add(lists[i][k]); ok && superseded != nil {
				superseded[i] = append(superseded[i], old)
			}
		}
		reports, addrs, all := cols.Columns()
		ix.cols[i] = epochCols{reports: slices.Clone(reports), addrs: slices.Clone(addrs), all: slices.Clone(all)}
	}
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
	keys    []uint64   // (address, position) keys ordering latest
	keyTmp  []uint64   // radix.Sort's ping-pong buffer for keys
	scratch []isp.Addr // radix.Sort's ping-pong buffer for all
	seen    []isp.Addr // open-addressing set of the visible peers; 0 is an empty slot
	zero    bool       // whether address 0 is visible
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
// on their partner lists). The slices alias the builder's buffers; they
// are read-only and valid until the next Reset.
func (c *EpochColumns) Columns() (reports []Report, addrs, all []isp.Addr) {
	c.sortLatest()
	c.collectVisible()
	return c.latest, c.addrs, c.all
}

// sortLatest orders the held reports by address. It sorts packed
// (address, position) keys, then moves each report once, following the
// permutation's cycles, instead of sorting the reports themselves.
func (c *EpochColumns) sortLatest() {
	c.keys = c.keys[:0]
	for i := range c.latest {
		c.keys = append(c.keys, uint64(c.latest[i].Addr)<<32|uint64(i))
	}
	c.keys = radix.Sort(c.keys, &c.keyTmp)
	c.addrs = c.addrs[:0]
	for _, k := range c.keys {
		c.addrs = append(c.addrs, isp.Addr(k>>32))
	}
	// Position i takes the report at the position packed into keys[i].
	// A key is rewritten to its own index once its report has moved, so
	// each cycle of the permutation is followed once.
	for i := range c.keys {
		if int(uint32(c.keys[i])) == i {
			continue
		}
		held := c.latest[i]
		for j := i; ; {
			k := int(uint32(c.keys[j]))
			c.keys[j] = c.keys[j]&^0xffffffff | uint64(j)
			if k == i {
				c.latest[j] = held
				break
			}
			c.latest[j] = c.latest[k]
			j = k
		}
	}
}

// collectVisible fills all with the distinct visible peers, sorted. An
// open-addressing set, at least twice the size of the entries it may
// take, removes the duplicates first — the partner lists name each peer
// about ten times — so only the distinct addresses are sorted. Address 0
// marks an empty slot, so its presence is kept aside.
func (c *EpochColumns) collectVisible() {
	entries := len(c.latest)
	for i := range c.latest {
		entries += len(c.latest[i].Partners)
	}
	logSize := max(4, bits.Len(uint(2*entries)))
	if size := 1 << logSize; cap(c.seen) < size {
		c.seen = make([]isp.Addr, size)
	} else {
		c.seen = c.seen[:size]
		clear(c.seen)
	}
	shift := uint(32 - logSize)
	c.all, c.zero = c.all[:0], false
	for i := range c.latest {
		c.insert(c.latest[i].Addr, shift)
		for _, p := range c.latest[i].Partners {
			c.insert(p.Addr, shift)
		}
	}
	if c.zero {
		c.all = append(c.all, 0)
	}
	c.all = radix.Sort(c.all, &c.scratch)
}

// insert adds a to the visible set, and to all if it is new. The slot is
// picked by Fibonacci hashing (the product's top bits) and collisions
// probe linearly.
func (c *EpochColumns) insert(a isp.Addr, shift uint) {
	if a == 0 {
		c.zero = true
		return
	}
	mask := uint32(len(c.seen) - 1)
	for h := uint32(a) * 0x9e3779b1 >> shift; ; h = (h + 1) & mask {
		switch c.seen[h] {
		case a:
			return
		case 0:
			c.seen[h] = a
			c.all = append(c.all, a)
			return
		}
	}
}

// Interval returns the epoch width.
func (ix *Index) Interval() time.Duration { return ix.interval }

// NumEpochs returns the number of non-empty epochs.
func (ix *Index) NumEpochs() int { return len(ix.epochs) }

// Epochs returns the indexes of all non-empty epochs, ascending. The
// slice is a copy; callers may keep it.
func (ix *Index) Epochs() []int64 {
	return slices.Clone(ix.epochs)
}

// Reports returns the epoch's latest-by-peer reports sorted by address
// (a shared sub-slice; read-only). Empty for unknown epochs.
func (ix *Index) Reports(epoch int64) []Report {
	i, ok := ix.pos[epoch]
	if !ok {
		return nil
	}
	return ix.cols[i].reports
}

// Reporters returns the epoch's reporting addresses in ascending order,
// aligned with Reports (a shared sub-slice; read-only).
func (ix *Index) Reporters(epoch int64) []isp.Addr {
	i, ok := ix.pos[epoch]
	if !ok {
		return nil
	}
	return ix.cols[i].addrs
}

// AllPeers returns every address visible in the epoch — reporters plus
// everyone on their partner lists — sorted ascending (a shared
// sub-slice; read-only).
func (ix *Index) AllPeers(epoch int64) []isp.Addr {
	i, ok := ix.pos[epoch]
	if !ok {
		return nil
	}
	return ix.cols[i].all
}
