// Package allocguard counts the heap allocations of a measured window
// exactly, for the tests that pin a warm path's allocations.
//
// testing.AllocsPerRun reports the mean per run truncated to an integer,
// so a path that allocates on fewer than one run in N reads 0. Count
// sums runtime.MemStats.Mallocs over the whole window instead: one
// allocation in any run reads 1.
package allocguard

import (
	"runtime"
	"runtime/debug"
)

// Count calls f runs times and returns the number of heap objects
// allocated while it ran. Like testing.AllocsPerRun it pins GOMAXPROCS
// to 1 for the window, but it makes no warm-up call of its own: the
// caller warms f up, so the window holds exactly the runs it names.
//
// The collector is off for the window; switching it off first waits out
// a cycle in progress. A collection running through a window sometimes
// counted an object of the runtime's own (about one window in a hundred
// of 50 warm exchange ticks, none in 2,000 with the collector off),
// which would make an exact zero flaky.
func Count(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
