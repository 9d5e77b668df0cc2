package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/trace"
)

// BenchmarkSimulatedHour measures the cost of one simulated hour of the
// overlay at a given target concurrency, reports included.
func BenchmarkSimulatedHour(b *testing.B) {
	for _, conc := range []float64{200, 600} {
		name := "conc200"
		if conc == 600 {
			name = "conc600"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := New(Config{
					Seed:            int64(i + 1),
					Duration:        time.Hour,
					MeanConcurrency: conc,
					ExtraChannels:   10,
					Sink:            trace.Discard,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJoinPath measures the join path on its own: arrivals into a
// warm seeded population (seed 7, 48 extra channels, about 3,900 peers
// after 30 virtual minutes at a mean concurrency of 5,000), each one a
// full handleArrival: address and capacity draws, tracker registration,
// bootstrap connects and timers. After each batch of timed joins as many
// random peers depart with the timer stopped, so the population and the
// trackers stay at their warm size. It reports ns/join and allocs/join.
func BenchmarkJoinPath(b *testing.B) {
	s, err := New(Config{
		Seed:            7,
		Duration:        30 * time.Minute,
		MeanConcurrency: 5000,
		ExtraChannels:   48,
		Shards:          1,
		Sink:            trace.Discard,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	now := s.sched.Now()
	victims := rand.New(rand.NewSource(1))
	const batch = 256
	var ms runtime.MemStats
	var mallocs uint64
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.handleArrival(now)
		if (i+1)%batch != 0 && i+1 != b.N {
			continue
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - m0
		for k := i%batch + 1; k > 0; {
			if p := s.peers[victims.Intn(len(s.peers))]; !p.IsServer() {
				s.handleDeparture(p, now)
				k--
			}
		}
		runtime.ReadMemStats(&ms)
		m0 = ms.Mallocs
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/join")
	b.ReportMetric(float64(mallocs)/float64(b.N), "allocs/join")
}
