// Package des implements a minimal discrete-event scheduler over virtual
// time. The simulator uses it for everything that happens at an exact
// instant — peer joins, departures, report emissions — while bandwidth is
// integrated over fixed ticks by the stream layer.
//
// The scheduler is deliberately single-threaded: determinism matters more
// than parallelism here, because a reproduction must regenerate identical
// traces from identical seeds. Events at the same instant fire in
// scheduling order.
//
// Internally events sit in a 4-ary min-heap (internal/sched) keyed on
// (UnixNano, sequence). Cancellation is lazy: a canceled event stays
// queued and is discarded when it surfaces, which is cheaper than
// removal from the middle of the heap and does not disturb the order of
// live events.
package des

import (
	"time"

	"github.com/magellan-p2p/magellan/internal/sched"
)

// Handler is an event callback. It receives the virtual time the event
// fires at.
type Handler func(now time.Time)

// Event lifecycle states.
const (
	statePending = iota
	stateFired
	stateCanceled
)

// Event is a scheduled callback. It can be canceled until it fires.
type Event struct {
	at    time.Time
	seq   uint64
	fn    Handler
	state uint8
}

// Time returns the instant the event is scheduled for.
func (e *Event) Time() time.Time { return e.at }

// Scheduler orders events over virtual time.
type Scheduler struct {
	now     time.Time
	q       *sched.Queue[*Event]
	seq     uint64
	runs    uint64
	pending int
}

// NewScheduler starts virtual time at the given instant.
func NewScheduler(start time.Time) *Scheduler {
	return &Scheduler{now: start, q: sched.NewQueue[*Event]()}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Time { return s.now }

// Len returns the number of pending (non-canceled) events.
func (s *Scheduler) Len() int { return s.pending }

// Fired returns how many events have executed so far.
func (s *Scheduler) Fired() uint64 { return s.runs }

// At schedules fn at instant t. Scheduling in the past clamps to now, so
// the event fires on the next Step.
func (s *Scheduler) At(t time.Time, fn Handler) *Event {
	if t.Before(s.now) {
		t = s.now
	}
	s.seq++
	e := &Event{at: t, seq: s.seq, fn: fn}
	s.q.Push(t.UnixNano(), e.seq, e)
	s.pending++
	return e
}

// After schedules fn d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn Handler) *Event {
	return s.At(s.now.Add(d), fn)
}

// Cancel prevents a pending event from firing. Canceling a fired or
// already-canceled event is a no-op. The event slot is reclaimed lazily
// when it reaches the front of the queue.
func (s *Scheduler) Cancel(e *Event) {
	if e == nil || e.state != statePending {
		return
	}
	e.state = stateCanceled
	s.pending--
}

// Peek returns the instant of the next pending event.
func (s *Scheduler) Peek() (time.Time, bool) {
	for {
		_, _, e, ok := s.q.PeekMin()
		if !ok {
			return time.Time{}, false
		}
		if e.state == stateCanceled {
			s.q.PopMin()
			continue
		}
		return e.at, true
	}
}

// Step fires the next event, advancing virtual time to it. It reports
// whether an event was fired.
func (s *Scheduler) Step() bool {
	for {
		_, _, e, ok := s.q.PopMin()
		if !ok {
			return false
		}
		if e.state == stateCanceled {
			continue
		}
		e.state = stateFired
		s.pending--
		s.now = e.at
		s.runs++
		e.fn(s.now)
		return true
	}
}

// RunUntil fires every event scheduled at or before t (including events
// those events schedule, if they also fall at or before t), then advances
// virtual time to exactly t. It returns the number of events fired.
func (s *Scheduler) RunUntil(t time.Time) int {
	fired := 0
	for {
		next, ok := s.Peek()
		if !ok || next.After(t) {
			break
		}
		s.Step()
		fired++
	}
	if t.After(s.now) {
		s.now = t
	}
	return fired
}

// Ticker fires a handler periodically until stopped.
type Ticker struct {
	s        *Scheduler
	interval time.Duration
	fn       Handler
	ev       *Event
	stopped  bool
}

// Every schedules fn to run at first and then every interval thereafter.
// The interval must be positive.
func (s *Scheduler) Every(first time.Time, interval time.Duration, fn Handler) *Ticker {
	if interval <= 0 {
		panic("des: non-positive ticker interval")
	}
	t := &Ticker{s: s, interval: interval, fn: fn}
	t.ev = s.At(first, t.fire)
	return t
}

func (t *Ticker) fire(now time.Time) {
	if t.stopped {
		return
	}
	t.fn(now)
	if !t.stopped { // fn may have stopped the ticker
		t.ev = t.s.At(now.Add(t.interval), t.fire)
	}
}

// Stop cancels future firings. Safe to call multiple times.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.s.Cancel(t.ev)
}
