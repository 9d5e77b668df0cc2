package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// oracle is the independent reference the property tests check the
// queue against: a slice of the queued seqs kept sorted descending by
// (at, seq), so the minimum is the last element. Push binary-searches
// its slot and shifts; pop takes the min end. It shares no code with
// the heap. The slice holds 4-byte seqs that index at, which keeps the
// shifts of the 200k-step churn program cheap under -race.
type oracle struct {
	at   []int64  // at[seq] is the instant pushed with seq
	keys []uint32 // queued seqs, sorted descending by (at[seq], seq)
}

// push queues (at, seq). Seqs must be pushed in order 0, 1, 2, ….
func (o *oracle) push(at int64, seq uint64) {
	if seq != uint64(len(o.at)) {
		panic("oracle: seqs must be pushed in order")
	}
	o.at = append(o.at, at)
	k := uint32(seq)
	i := sort.Search(len(o.keys), func(i int) bool {
		j := o.keys[i]
		return o.at[j] < at || (o.at[j] == at && j < k)
	})
	o.keys = slices.Insert(o.keys, i, k)
}

// pop removes and returns the earliest queued (at, seq).
func (o *oracle) pop() (int64, uint64) {
	k := o.keys[len(o.keys)-1]
	o.keys = o.keys[:len(o.keys)-1]
	return o.at[k], uint64(k)
}

func (o *oracle) len() int { return len(o.keys) }

func TestEmptyQueue(t *testing.T) {
	q := NewQueue[int]()
	if q.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", q.Len())
	}
	if _, _, _, ok := q.PopMin(); ok {
		t.Fatal("PopMin on empty queue returned ok")
	}
	if _, _, _, ok := q.PeekMin(); ok {
		t.Fatal("PeekMin on empty queue returned ok")
	}
}

func TestOrderedDrain(t *testing.T) {
	q := NewQueue[int]()
	const n = 1000
	for i := 0; i < n; i++ {
		q.Push(int64(i)*1e6, uint64(i), i)
	}
	for i := 0; i < n; i++ {
		at, seq, v, ok := q.PopMin()
		if !ok || at != int64(i)*1e6 || seq != uint64(i) || v != i {
			t.Fatalf("pop %d: got (%d,%d,%d,%v)", i, at, seq, v, ok)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len() = %d after drain", q.Len())
	}
}

// TestSameTimestampOrdering: entries pushed at one instant must drain in
// sequence order regardless of push order.
func TestSameTimestampOrdering(t *testing.T) {
	q := NewQueue[int]()
	const at = int64(1234567890)
	order := []uint64{7, 2, 9, 0, 5, 3, 8, 1, 6, 4}
	for _, seq := range order {
		q.Push(at, seq, int(seq))
	}
	for want := uint64(0); want < 10; want++ {
		_, seq, v, ok := q.PopMin()
		if !ok || seq != want || v != int(want) {
			t.Fatalf("pop: got seq=%d v=%d ok=%v, want seq=%d", seq, v, ok, want)
		}
	}
}

// TestPushBelowFloor: a push earlier than everything already popped
// must still surface before later entries.
func TestPushBelowFloor(t *testing.T) {
	q := NewQueue[int]()
	for i := 0; i < 100; i++ {
		q.Push(int64(i)*1e9, uint64(i), i)
	}
	// Drain halfway so the queue's minimum stands at t=50s.
	for i := 0; i < 50; i++ {
		q.PopMin()
	}
	q.Push(3, 1000, -1) // far below everything popped so far
	at, _, v, ok := q.PeekMin()
	if !ok || at != 3 || v != -1 {
		t.Fatalf("PeekMin after below-floor push: got (%d,%d,%v)", at, v, ok)
	}
	q.PopMin()
	at, _, v, _ = q.PopMin()
	if at != 50*1e9 || v != 50 {
		t.Fatalf("next pop: got (%d,%d), want (50e9,50)", at, v)
	}
}

// TestShrinkGrow grows the heap through many reallocations with heavy
// key ties (97 distinct instants over 10k entries), drains it to empty,
// then refills the retained backing array: both fills must drain in
// (at, seq) order.
func TestShrinkGrow(t *testing.T) {
	q := NewQueue[int]()
	const n = 10000
	var seq uint64
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			q.Push(int64(i%97)*1e7, seq, int(seq))
			seq++
		}
		if q.Len() != n {
			t.Fatalf("round %d: Len() = %d, want %d", round, q.Len(), n)
		}
		prevAt, prevSeq := int64(-1), uint64(0)
		for i := 0; i < n; i++ {
			at, s, v, ok := q.PopMin()
			if !ok || v != int(s) {
				t.Fatalf("round %d pop %d: got (%d,%d,%d,%v)", round, i, at, s, v, ok)
			}
			if at < prevAt || (at == prevAt && s <= prevSeq) {
				t.Fatalf("round %d pop %d: order violation (%d,%d) after (%d,%d)",
					round, i, at, s, prevAt, prevSeq)
			}
			prevAt, prevSeq = at, s
		}
		if _, _, _, ok := q.PopMin(); ok || q.Len() != 0 {
			t.Fatalf("round %d: queue not empty after drain (Len %d)", round, q.Len())
		}
	}
}

// TestPopMinClearsVacatedSlot: the slots a pop frees at the end of the
// backing array must hold the zero entry, so the queue keeps no
// reference to a value it has handed back.
func TestPopMinClearsVacatedSlot(t *testing.T) {
	q := NewQueue[*int]()
	const n = 9
	for i := 0; i < n; i++ {
		v := i
		q.Push(int64(n-i), uint64(i), &v)
	}
	for popped := 1; popped <= n; popped++ {
		if _, _, v, ok := q.PopMin(); !ok || v == nil {
			t.Fatalf("pop %d: got (%v, %v)", popped, v, ok)
		}
		for i, e := range q.h[len(q.h):n] {
			if e != (entry[*int]{}) {
				t.Fatalf("after %d pops: vacated slot %d holds (%d,%d,%p)",
					popped, len(q.h)+i, e.at, e.seq, e.v)
			}
		}
	}
}

// TestHeapOrderInvariant checks the heap property itself after every
// operation of a churn program: no node orders before its parent.
func TestHeapOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := NewQueue[int]()
	var seq uint64
	for step := 0; step < 3000; step++ {
		if q.Len() == 0 || rng.Intn(3) != 0 {
			// Few distinct instants, so seq ties are common.
			q.Push(rng.Int63n(64), seq, int(seq))
			seq++
		} else {
			q.PopMin()
		}
		for i := 1; i < len(q.h); i++ {
			if p := (i - 1) / arity; q.h[i].before(&q.h[p]) {
				t.Fatalf("step %d: node %d (%d,%d) orders before its parent %d (%d,%d)",
					step, i, q.h[i].at, q.h[i].seq, p, q.h[p].at, q.h[p].seq)
			}
		}
	}
}

// popBoth pops the queue and the oracle and fails on any difference.
// Every test pushes int(seq) as the value, so the value is checked too.
func popBoth(t *testing.T, label string, q *Queue[int], ref *oracle) int64 {
	t.Helper()
	at, seq, v, ok := q.PopMin()
	wantAt, wantSeq := ref.pop()
	if !ok || at != wantAt || seq != wantSeq || v != int(wantSeq) {
		t.Fatalf("%s: pop (%d,%d,%d,%v), want (%d,%d,%d)",
			label, at, seq, v, ok, wantAt, wantSeq, wantSeq)
	}
	return at
}

// TestChurnInterleaved drives heavy interleaved push/pop churn (the
// join/depart/reschedule pattern) against the oracle.
func TestChurnInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	q := NewQueue[int]()
	ref := &oracle{}
	var seq uint64
	now := int64(0)
	for step := 0; step < 200000; step++ {
		if ref.len() == 0 || rng.Intn(3) != 0 {
			// Push near now, occasionally far ahead, rarely at now exactly
			// (same-timestamp collisions).
			var at int64
			switch rng.Intn(10) {
			case 0:
				at = now // collision
			case 1:
				at = now + rng.Int63n(1e12) // far future
			default:
				at = now + rng.Int63n(1e9)
			}
			q.Push(at, seq, int(seq))
			ref.push(at, seq)
			seq++
		} else {
			at := popBoth(t, "churn", q, ref)
			if at < now {
				t.Fatalf("step %d: time went backwards: %d < %d", step, at, now)
			}
			now = at
		}
		if q.Len() != ref.len() {
			t.Fatalf("step %d: Len %d != oracle %d", step, q.Len(), ref.len())
		}
	}
}

// TestPropertyVsOracle is the seeded property test: for each push
// program and a batch of random seeds, a random push/pop sequence must
// pop in exactly the oracle's order. A program draws each push's
// instant from the rng and the instant of the latest pop.
func TestPropertyVsOracle(t *testing.T) {
	const (
		minute = int64(time.Minute)
		hour   = int64(time.Hour)
	)
	programs := []struct {
		name string
		at   func(rng *rand.Rand, now int64) int64
	}{
		// Instants spread over 2^20…2^49 ns regardless of now, so
		// pushes often land below entries already popped.
		{"spread", func(rng *rand.Rand, _ int64) int64 {
			return rng.Int63n(1 << uint(20+rng.Intn(30)))
		}},
		// The pending-timer mix of a 100k-peer run: events due within
		// the current minute (arrivals, rejoins), report timers one
		// 10-minute report interval ahead, and departure timers up to
		// hours ahead. Pushes at one now share an instant, so the seq
		// tie-break decides their order.
		{"100k timers", func(rng *rand.Rand, now int64) int64 {
			switch r := rng.Intn(10); {
			case r < 3:
				return now + rng.Int63n(minute)
			case r < 8:
				return now + 10*minute
			default:
				return now + minute + rng.Int63n(6*hour)
			}
		}},
	}
	for _, p := range programs {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			q := NewQueue[int]()
			ref := &oracle{}
			label := fmt.Sprintf("%s seed %d", p.name, seed)
			var seq uint64
			var now int64
			n := 500 + rng.Intn(5000)
			for i := 0; i < n; i++ {
				at := p.at(rng, now)
				q.Push(at, seq, int(seq))
				ref.push(at, seq)
				seq++
				// Interleave some pops mid-build.
				if rng.Intn(4) == 0 && ref.len() > 0 {
					now = popBoth(t, label, q, ref)
				}
			}
			for ref.len() > 0 {
				popBoth(t, label, q, ref)
			}
			if q.Len() != 0 {
				t.Fatalf("%s: residue %d", label, q.Len())
			}
		}
	}
}

// TestQueueHoldZeroAllocs pins the steady state of a simulation: once
// the queue is warm, a pop followed by the push of a successor reuses
// the backing array and allocates nothing.
func TestQueueHoldZeroAllocs(t *testing.T) {
	q := NewQueue[int]()
	const hold = 4096
	var seq uint64
	for ; seq < hold; seq++ {
		q.Push(int64(seq*7919%hold)*1e6, seq, int(seq))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		at, _, v, _ := q.PopMin()
		q.Push(at+int64(seq%997)*1e6, seq, v)
		seq++
	})
	if allocs != 0 {
		t.Errorf("hold operation allocates %.2f times per run, want 0", allocs)
	}
	if q.Len() != hold {
		t.Fatalf("Len() = %d, want %d", q.Len(), hold)
	}
}

func BenchmarkQueueHold(b *testing.B) {
	// Classic hold model: steady-state queue of 10k entries, each
	// operation pops the min and pushes a successor a random-ish offset
	// ahead (deterministic LCG so the benchmark is stable).
	q := NewQueue[int]()
	const hold = 10000
	lcg := uint64(12345)
	next := func() int64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return int64(lcg % 1e9)
	}
	var seq uint64
	for i := 0; i < hold; i++ {
		q.Push(next(), seq, i)
		seq++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at, _, v, _ := q.PopMin()
		q.Push(at+next(), seq, v)
		seq++
	}
}
