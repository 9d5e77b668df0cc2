package trace

import (
	"slices"
	"testing"
)

// TestCloserRule drives the close rule at both lateness settings the
// analyzers use: an epoch closes only once every shard's newest epoch is
// more than the lateness past it, closes happen in ascending order, and
// reports at or behind the frontier or from an unknown shard are counted
// stragglers.
func TestCloserRule(t *testing.T) {
	type step struct {
		shard      int
		epoch      int64
		wantClosed []int64 // epochs this report closes
		straggler  bool
	}
	for _, tc := range []struct {
		name     string
		shards   int
		lateness int64
		steps    []step
	}{
		{"stream", 1, 1, []step{
			{0, 10, nil, false},
			{0, 11, nil, false},
			{0, 10, nil, false}, // one behind the newest: still open
			{0, 12, []int64{10}, false},
			{0, 10, nil, true}, // behind the frontier
			{0, 11, nil, false},
			{0, 15, []int64{11, 12}, false},
		}},
		{"live", 2, 0, []step{
			{0, 10, nil, false},
			{0, 11, nil, false}, // shard 1 silent: nothing closes
			{1, 10, nil, false},
			{1, 11, []int64{10}, false},
			{0, 10, nil, true},
			{2, 12, nil, true}, // outside the fan-in
			{1, 13, nil, false},
			{0, 13, []int64{11}, false},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCloser[int](tc.shards, tc.lateness)
			var closed []int64
			record := func(e int64, n *int) {
				if *n == 0 {
					t.Errorf("epoch %d closed with no reports", e)
				}
				closed = append(closed, e)
			}
			stragglers := uint64(0)
			for i, st := range tc.steps {
				closed = closed[:0]
				n := c.Observe(st.shard, st.epoch, record)
				if (n == nil) != st.straggler {
					t.Fatalf("step %d: state %v, want straggler=%v", i, n, st.straggler)
				}
				if n != nil {
					*n++
				} else {
					stragglers++
				}
				if !slices.Equal(closed, st.wantClosed) {
					t.Fatalf("step %d: closed %v, want %v", i, closed, st.wantClosed)
				}
			}
			if c.Stragglers() != stragglers {
				t.Errorf("Stragglers() = %d, want %d", c.Stragglers(), stragglers)
			}
			var open []int64
			c.Each(func(e int64, _ *int) { open = append(open, e) })
			if len(open) != c.Len() || !slices.IsSorted(open) {
				t.Errorf("Each visited %v with Len %d", open, c.Len())
			}
			closed = closed[:0]
			c.Drain(record)
			if !slices.Equal(closed, open) || c.Len() != 0 {
				t.Errorf("Drain closed %v, want %v", closed, open)
			}
			// The drained epochs are behind the frontier now.
			if c.Observe(0, open[len(open)-1], record) != nil {
				t.Error("report for a drained epoch was not a straggler")
			}
		})
	}
}
