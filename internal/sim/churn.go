package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// ChurnConfig groups the reproducible churn scenarios a run can inject on
// top of the arrival process. Flash-crowd joins are the third scenario of
// the set; they predate this struct and stay configured via Config.Crowds.
// The zero value injects nothing: churn-free runs draw no extra entropy
// and produce byte-identical traces to builds without this feature.
type ChurnConfig struct {
	// MassDepartures are correlated departure events — a broadcast
	// ending, a regional outage — at fixed offsets from the run start.
	MassDepartures []MassDeparture
	// Flapping makes a share of arrivals bounce: short sessions followed
	// by quick rejoins with the same address, the failure mode flaky
	// last-mile links impose on an overlay.
	Flapping Flapping
}

// MassDeparture makes every live non-server peer depart with the given
// probability at one instant.
type MassDeparture struct {
	// Offset is when the event fires, measured from the run start.
	Offset time.Duration
	// Fraction is each peer's independent departure probability.
	Fraction float64
}

// Flapping configures flapping peers.
type Flapping struct {
	// Fraction of arrivals that flap instead of holding a normal session.
	Fraction float64
}

// The flapping duty cycle: mean online and offline stretches, and how
// many times a flapper rejoins after its first departure. Mostly-on
// bounces short enough that a flapper rarely survives to reporting age
// stress the overlay rather than the trace volume.
const (
	_flapOnMean  = 5 * time.Minute
	_flapOffMean = 2 * time.Minute
	_flapCycles  = 4
)

func (c ChurnConfig) validate() error {
	for i, md := range c.MassDepartures {
		if md.Offset < 0 {
			return fmt.Errorf("sim: mass departure %d at negative offset %v", i, md.Offset)
		}
		if md.Fraction < 0 || md.Fraction > 1 || md.Fraction != md.Fraction {
			return fmt.Errorf("sim: mass departure %d fraction %v outside [0, 1]", i, md.Fraction)
		}
	}
	if f := c.Flapping.Fraction; f < 0 || f > 1 || f != f {
		return fmt.Errorf("sim: flapping fraction %v outside [0, 1]", f)
	}
	return nil
}

// flapOnTime draws one online stretch: exponential around _flapOnMean,
// floored at a second (a zero-length session would join and depart in
// the same event) and capped at six means to keep flappers flapping.
func flapOnTime(rng *rand.Rand) time.Duration { return expDuration(rng, _flapOnMean) }

// flapOffTime draws one offline stretch on the same shape.
func flapOffTime(rng *rand.Rand) time.Duration { return expDuration(rng, _flapOffMean) }

func expDuration(rng *rand.Rand, mean time.Duration) time.Duration {
	d := time.Duration(rng.ExpFloat64() * float64(mean))
	if d < time.Second {
		return time.Second
	}
	if max := 6 * mean; d > max {
		return max
	}
	return d
}
