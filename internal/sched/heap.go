// Package sched provides the priority queue backing the discrete-event
// scheduler: a 4-ary min-heap over (instant, sequence) keys.
//
// Push and PopMin cost O(log n) however the keys spread, which matters
// because a simulation's pending timers do not cluster around the
// advancing virtual now: beside near-term events sit report timers
// minutes ahead and departure timers hours ahead. A 4-ary heap is half
// as deep as a binary one, and a node's four children are adjacent in
// memory.
//
// Determinism: the pop order is the unique total order by (at, seq),
// and every operation is a pure function of the push/pop history. The
// package never reads the wall clock and draws no randomness.
package sched

// arity is the heap's fan-out: the children of node i are
// arity*i+1 … arity*i+arity, and its parent is (i-1)/arity.
const arity = 4

// entry is one queued item.
type entry[T any] struct {
	at  int64
	seq uint64
	v   T
}

// before reports whether a orders strictly before b in (at, seq) order.
func (a *entry[T]) before(b *entry[T]) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Queue is a min-queue over (at, seq) keys carrying values of type T.
// Its zero value is an empty queue. Not safe for concurrent use.
type Queue[T any] struct {
	h []entry[T] // h[0] is the minimum; each node orders before its children
}

// NewQueue returns an empty queue.
func NewQueue[T any]() *Queue[T] { return &Queue[T]{} }

// Len returns the number of queued entries.
func (q *Queue[T]) Len() int { return len(q.h) }

// Push inserts an entry. Keys may arrive in any order; seq must be
// unique per queue for the pop order to be total.
func (q *Queue[T]) Push(at int64, seq uint64, v T) {
	q.h = append(q.h, entry[T]{at: at, seq: seq, v: v})
	q.up(len(q.h) - 1)
}

// PeekMin returns the earliest entry without removing it.
func (q *Queue[T]) PeekMin() (at int64, seq uint64, v T, ok bool) {
	if len(q.h) == 0 {
		return 0, 0, v, false
	}
	e := &q.h[0]
	return e.at, e.seq, e.v, true
}

// PopMin removes and returns the earliest entry.
func (q *Queue[T]) PopMin() (at int64, seq uint64, v T, ok bool) {
	n := len(q.h)
	if n == 0 {
		return 0, 0, v, false
	}
	e := q.h[0]
	// Clear the vacated slot so the backing array keeps no reference
	// to a value the caller now owns.
	q.h[0], q.h[n-1] = q.h[n-1], entry[T]{}
	q.h = q.h[:n-1]
	if n > 2 {
		q.down(0)
	}
	return e.at, e.seq, e.v, true
}

// up moves the entry at i toward the root while it orders before its parent.
func (q *Queue[T]) up(i int) {
	h := q.h
	e := h[i]
	for i > 0 {
		p := (i - 1) / arity
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// down moves the entry at i toward the leaves while a child orders before it.
func (q *Queue[T]) down(i int) {
	h := q.h
	n := len(h)
	e := h[i]
	for {
		first := arity*i + 1
		if first >= n {
			break
		}
		m := first // the earliest child
		for c := first + 1; c < first+arity && c < n; c++ {
			if h[c].before(&h[m]) {
				m = c
			}
		}
		if !h[m].before(&e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}
