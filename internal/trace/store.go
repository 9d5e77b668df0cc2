package trace

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/magellan-p2p/magellan/internal/obs"
)

// Store buckets reports into fixed epochs (default: the 10-minute report
// interval) and serves per-epoch snapshots to the analyzers. One epoch's
// reports together describe one "continuous-time snapshot of the P2P
// streaming topology", in the paper's terms.
//
// Store is safe for concurrent use: the UDP trace server submits from its
// receive loop while analyzers read.
type Store struct {
	mu       sync.RWMutex
	interval time.Duration
	epochs   map[int64][]Report
	count    int
	opened   int64 // the epoch most recently opened; sizes the next one

	// Seal cache: idx is valid while idxCount == count (count increases
	// monotonically with every Submit).
	idx      *Index
	idxCount int

	// journal, when non-nil, records store-plane lifecycle events:
	// accepted on Submit, indexed/superseded from Seal. Events carry IDs
	// re-derived from report contents (Seq 0 — the store never saw the
	// emission) and are stamped with report time, never wall clock, so
	// recording stays deterministic for seeded runs. Measurement-only.
	journal *obs.Journal
}

// _epochHeadroom sizes a newly opened epoch: it starts with room for the
// n reports the epoch opened before it holds by then, plus
// n/_epochHeadroom (a quarter), instead of regrowing from empty.
// Consecutive epochs hold about as many reports; with room for n alone,
// every epoch larger than its predecessor regrew, 106 of the 214 in the
// seed-11 analyze-36h trace.
const _epochHeadroom = 4

// NewStore builds a store with the given epoch interval (0 means
// DefaultReportInterval).
func NewStore(interval time.Duration) *Store {
	if interval <= 0 {
		interval = DefaultReportInterval
	}
	return &Store{
		interval: interval,
		epochs:   make(map[int64][]Report),
	}
}

var _ Sink = (*Store)(nil)

// SetJournal attaches a flight recorder to the store. Attach it before
// the first Submit (and certainly before the first Seal): the seal index
// is cached, so a journal attached after an index is built misses that
// build's indexed/superseded events.
func (s *Store) SetJournal(j *obs.Journal) {
	s.mu.Lock()
	s.journal = j
	s.mu.Unlock()
}

// journalID re-derives a report's identity from its contents. The
// binary report codec carries no ReportID (the format predates the
// flight recorder and must stay bit-identical), so store-plane events
// use Seq 0 and the receipt-time epoch; a journey matches them to the
// emission by address, channel, and epoch.
func journalID(r *Report, interval time.Duration) obs.ReportID {
	return obs.ReportID{
		Addr:    uint32(r.Addr),
		Channel: r.Channel,
		Epoch:   r.Time.UnixNano() / int64(interval),
	}
}

// Interval returns the epoch width.
func (s *Store) Interval() time.Duration { return s.interval }

// EpochOf maps an instant to its epoch index.
func (s *Store) EpochOf(t time.Time) int64 {
	return t.UnixNano() / int64(s.interval)
}

// EpochStart returns the instant an epoch begins, in UTC.
func (s *Store) EpochStart(epoch int64) time.Time {
	return time.Unix(0, epoch*int64(s.interval)).UTC()
}

// Submit implements Sink.
func (s *Store) Submit(r Report) error {
	if err := r.Validate(); err != nil {
		return err
	}
	e := s.EpochOf(r.Time)
	s.mu.Lock()
	list, ok := s.epochs[e]
	if !ok {
		n := len(s.epochs[s.opened])
		list = make([]Report, 0, n+n/_epochHeadroom)
		s.opened = e
	}
	s.epochs[e] = append(list, r)
	s.count++
	j := s.journal
	s.mu.Unlock()
	j.Record(r.Time.UnixNano(), obs.StageStore, obs.VerdictAccepted, journalID(&r, s.interval))
	return nil
}

// Len returns the total number of stored reports.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

// Epochs returns the indexes of all non-empty epochs, ascending.
func (s *Store) Epochs() []int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int64, 0, len(s.epochs))
	for e := range s.epochs {
		out = append(out, e)
	}
	slices.Sort(out)
	return out
}

// Snapshot is one epoch's worth of reports.
type Snapshot struct {
	Epoch   int64
	Start   time.Time
	Reports []Report
}

// Snapshot returns the reports of one epoch in arrival order. The slice
// is a copy; callers may keep it.
func (s *Store) Snapshot(epoch int64) Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	reports := make([]Report, len(s.epochs[epoch]))
	copy(reports, s.epochs[epoch])
	return Snapshot{Epoch: epoch, Start: s.EpochStart(epoch), Reports: reports}
}

// Range calls fn for each epoch in ascending order. fn receives a shared
// (read-only) report slice; it must not mutate or retain it. Returning a
// non-nil error stops the iteration.
func (s *Store) Range(fn func(epoch int64, start time.Time, reports []Report) error) error {
	for _, e := range s.Epochs() {
		s.mu.RLock()
		reports := s.epochs[e]
		s.mu.RUnlock()
		if err := fn(e, s.EpochStart(e), reports); err != nil {
			return err
		}
	}
	return nil
}

// DumpTo streams every stored report, epoch by epoch, into a sink —
// typically a file Writer. It is how simulations persist traces.
func (s *Store) DumpTo(sink Sink) error {
	return s.Range(func(_ int64, _ time.Time, reports []Report) error {
		for _, r := range reports {
			if err := sink.Submit(r); err != nil {
				return fmt.Errorf("dump: %w", err)
			}
		}
		return nil
	})
}
