package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Config assembles a workload.
type Config struct {
	// Seed drives all workload randomness.
	Seed int64
	// MeanConcurrency is the target average number of simultaneous peers;
	// the base arrival rate is derived from it via Little's law. The
	// paper observes ~100,000; simulations typically scale down.
	MeanConcurrency float64
	// Channels is the channel popularity. Nil means DefaultChannels(48).
	Channels *ChannelSet
	// Crowds lists flash-crowd surges.
	Crowds []FlashCrowd
}

// Workload turns a Config into a stream of peer arrivals at a rate
// shaped by DefaultProfile, each with a channel and a session length
// drawn from DefaultSessions.
//
// Workload is not safe for concurrent use; the simulator drives it from
// its single event loop.
type Workload struct {
	rng      *rand.Rand
	profile  Profile
	sessions *SessionModel
	channels *ChannelSet
	crowds   []FlashCrowd
	baseRate float64 // arrivals per second at multiplier 1
	maxRate  float64 // thinning envelope
}

// New builds a workload. It derives the base arrival rate so that the
// long-run mean concurrency matches cfg.MeanConcurrency:
// λ_base = N / (E[S] · mean profile multiplier).
func New(cfg Config) (*Workload, error) {
	if cfg.MeanConcurrency <= 0 {
		return nil, fmt.Errorf("workload: MeanConcurrency must be positive, got %v", cfg.MeanConcurrency)
	}
	profile, sessions := DefaultProfile(), DefaultSessions()
	channels := cfg.Channels
	if channels == nil {
		channels = DefaultChannels(48)
	}
	base := cfg.MeanConcurrency / (sessions.Mean().Seconds() * profile.Mean())

	maxMult := profile.Max()
	for _, f := range cfg.Crowds {
		if f.Peak > 1 {
			maxMult *= f.Peak
		}
	}

	return &Workload{
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		profile:  profile,
		sessions: sessions,
		channels: channels,
		crowds:   append([]FlashCrowd(nil), cfg.Crowds...),
		baseRate: base,
		maxRate:  base * maxMult,
	}, nil
}

// Rate returns the instantaneous arrival rate (peers per second) at t.
func (w *Workload) Rate(t time.Time) float64 {
	return w.baseRate * w.profile.Multiplier(t) * w.crowdMultiplier(t)
}

// Channels exposes the channel set.
func (w *Workload) Channels() *ChannelSet { return w.channels }

// NextArrival samples the first arrival instant strictly after the given
// time, using Lewis–Shedler thinning against the rate envelope.
func (w *Workload) NextArrival(after time.Time) time.Time {
	t := after
	for {
		gap := w.rng.ExpFloat64() / w.maxRate
		// Cap pathological gaps so virtual time always advances sanely.
		if gap > 24*3600 {
			gap = 24 * 3600
		}
		t = t.Add(time.Duration(gap * float64(time.Second)))
		if w.rng.Float64()*w.maxRate <= w.Rate(t) {
			return t
		}
	}
}

// SampleSession draws a session duration for a new arrival.
func (w *Workload) SampleSession() time.Duration {
	return w.sessions.Sample(w.rng)
}

// SampleChannel draws the channel a peer arriving at t joins. During a
// flash crowd the surge's extra arrivals skew toward the crowd's target
// channels, because those viewers are arriving for the broadcast.
func (w *Workload) SampleChannel(t time.Time) Channel {
	if len(w.crowds) == 0 {
		return w.channels.Sample(w.rng, nil)
	}
	boost := func(name string) float64 {
		b := 1.0
		for _, f := range w.crowds {
			if f.Targets(name) {
				if m := f.Multiplier(t); m > 1 {
					b *= m * m // quadratic: rate surge × preference shift
				}
			}
		}
		return b
	}
	return w.channels.Sample(w.rng, boost)
}

// ExpectedConcurrency returns the steady-state expected concurrency at t
// (rate × mean session), a diagnostic used by tests and reports.
func (w *Workload) ExpectedConcurrency(t time.Time) float64 {
	return w.Rate(t) * w.sessions.Mean().Seconds()
}

func (w *Workload) crowdMultiplier(t time.Time) float64 {
	m := 1.0
	for _, f := range w.crowds {
		m *= f.Multiplier(t)
	}
	return m
}

// Stable20MinFraction is the fraction of concurrent peers expected to be
// stable reporters under this workload's session model.
func (w *Workload) Stable20MinFraction() float64 {
	return w.sessions.StableConcurrentFraction(20 * time.Minute)
}

// ValidateCrowd sanity-checks a flash crowd definition.
func ValidateCrowd(f FlashCrowd) error {
	if f.Peak < 1 {
		return fmt.Errorf("workload: flash crowd peak %v < 1", f.Peak)
	}
	if f.Ramp < 0 || f.Hold < 0 || f.Decay < 0 {
		return fmt.Errorf("workload: flash crowd with negative phase duration")
	}
	if math.IsNaN(f.Peak) || math.IsInf(f.Peak, 0) {
		return fmt.Errorf("workload: flash crowd peak is not finite")
	}
	return nil
}
