package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. It sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p99 is the 99th percentile when at least ten samples lie beyond it,
// and the maximum of a smaller sample.
func p99(xs []float64) float64 {
	if len(xs) >= 1000 {
		return quantile(xs, 0.99)
	}
	return quantile(xs, 1)
}

// counters reads the process-wide cumulative heap allocation and GC CPU
// time. The GC CPU estimate is refreshed by the runtime at each GC cycle.
type counters struct {
	allocBytes uint64
	gcCPU      float64
}

func readCounters() counters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	var c counters
	if s[0].Value.Kind() == metrics.KindUint64 {
		c.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = s[1].Value.Float64()
	}
	return c
}

func (c counters) allocMBSince(start counters) float64 {
	return float64(c.allocBytes-start.allocBytes) / (1 << 20)
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// window decides how many passes a run makes: at least min, then more
// while the measurement window lasts.
type window struct {
	end time.Time
	min int
}

func newWindow(seconds float64, min int) window {
	return window{end: time.Now().Add(time.Duration(seconds * float64(time.Second))), min: min}
}

func (w window) more(done int) bool { return done < w.min || time.Now().Before(w.end) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
