package allocguard

import "testing"

var sink []byte

// TestCountSeesSporadicAllocation pins the reason the package exists: a
// path that allocates on one call in 50 reads 0 through
// testing.AllocsPerRun, whose per-run mean is truncated, and 1 through
// Count.
func TestCountSeesSporadicAllocation(t *testing.T) {
	calls := 0
	sporadic := func() {
		calls++
		if calls%50 == 25 {
			sink = make([]byte, 64)
		}
	}
	if got := testing.AllocsPerRun(49, sporadic); got != 0 {
		t.Fatalf("AllocsPerRun = %v, want the truncated 0 this test documents", got)
	}
	calls = 0
	if got := Count(50, sporadic); got != 1 {
		t.Errorf("Count = %d over 50 calls, want 1", got)
	}
	if got := Count(50, func() {}); got != 0 {
		t.Errorf("Count = %d for a call that allocates nothing, want 0", got)
	}
}
