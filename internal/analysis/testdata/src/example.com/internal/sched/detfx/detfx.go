// Package detfx exercises the determinism analyzer inside the event
// queue's package path (…/internal/sched/…): the scheduler core orders
// every event in the run, so ambient randomness and wall-clock reads
// there would silently break trace reproducibility.
package detfx

import (
	"math/rand"
	"time"
)

// SpreadBucket draws from the global generator: forbidden here.
func SpreadBucket() int {
	return rand.Intn(64) // want `math/rand\.Intn is nondeterministic`
}

// WallWidth sizes a bucket from the wall clock: forbidden here.
func WallWidth() time.Time {
	return time.Now() // want `time\.Now is nondeterministic`
}

// VirtualWidth is the sanctioned pattern: widths derive from virtual
// timestamps already in the queue, never from a clock.
func VirtualWidth(lo, hi int64, n int) int64 {
	if n < 2 {
		return 1
	}
	return (hi - lo) / int64(n-1)
}
