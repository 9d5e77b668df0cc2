package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// StreamRateKbps is the rate every channel streams at: UUSee streams are
// "mostly encoded to high quality streams around 400 Kbps".
const StreamRateKbps = 400

// Channel is a live stream with a popularity weight. UUSee broadcast over
// 800 channels; the paper's per-channel results use CCTV1 and CCTV4, with
// CCTV1 drawing about five times the concurrent audience of CCTV4
// (Sec. 4.1.3, footnote 2).
type Channel struct {
	Name   string
	Weight float64
	// RateKbps is the channel streaming rate.
	RateKbps float64
}

// ChannelSet is a weighted collection of channels.
type ChannelSet struct {
	channels []Channel
	total    float64
}

// NewChannelSet builds a set from explicit channels. Weights must be
// positive.
func NewChannelSet(channels []Channel) (*ChannelSet, error) {
	if len(channels) == 0 {
		return nil, fmt.Errorf("workload: empty channel set")
	}
	cs := &ChannelSet{channels: make([]Channel, len(channels))}
	copy(cs.channels, channels)
	for _, c := range cs.channels {
		if c.Weight <= 0 {
			return nil, fmt.Errorf("workload: channel %q has non-positive weight %v", c.Name, c.Weight)
		}
		cs.total += c.Weight
	}
	return cs, nil
}

// DefaultChannels builds a channel set with CCTV1 (weight 30) and CCTV4
// (weight 6) — the paper's 5:1 audience ratio, with CCTV1 near 30 % of
// the total population — plus extra channels whose weights follow a Zipf
// law with exponent 0.8, scaled to fill the remaining popularity mass.
// extra must be ≥ 0; the total channel count is extra + 2.
func DefaultChannels(extra int) *ChannelSet {
	channels := []Channel{
		{Name: "CCTV1", Weight: 30, RateKbps: StreamRateKbps},
		{Name: "CCTV4", Weight: 6, RateKbps: StreamRateKbps},
	}
	if extra > 0 {
		var zipfTotal float64
		for i := 1; i <= extra; i++ {
			zipfTotal += 1 / math.Pow(float64(i), 0.8)
		}
		const remaining = 64.0 // popularity mass left after CCTV1+CCTV4 of 100
		for i := 1; i <= extra; i++ {
			channels = append(channels, Channel{
				Name:     fmt.Sprintf("CH%03d", i),
				Weight:   remaining / zipfTotal / math.Pow(float64(i), 0.8),
				RateKbps: StreamRateKbps,
			})
		}
	}
	cs, err := NewChannelSet(channels)
	if err != nil {
		panic(err) // unreachable: weights are positive by construction
	}
	return cs
}

// Channels returns a copy of the channel list.
func (cs *ChannelSet) Channels() []Channel {
	out := make([]Channel, len(cs.channels))
	copy(out, cs.channels)
	return out
}

// Lookup finds a channel by name.
func (cs *ChannelSet) Lookup(name string) (Channel, bool) {
	for _, c := range cs.channels {
		if c.Name == name {
			return c, true
		}
	}
	return Channel{}, false
}

// Sample draws a channel. boost, when non-nil, multiplies each channel's
// weight — flash crowds use it to pull new arrivals toward the channels
// carrying the event broadcast.
func (cs *ChannelSet) Sample(rng *rand.Rand, boost func(name string) float64) Channel {
	if boost == nil {
		u := rng.Float64() * cs.total
		for _, c := range cs.channels {
			u -= c.Weight
			if u < 0 {
				return c
			}
		}
		return cs.channels[len(cs.channels)-1]
	}
	total := 0.0
	for _, c := range cs.channels {
		total += c.Weight * boost(c.Name)
	}
	u := rng.Float64() * total
	for _, c := range cs.channels {
		u -= c.Weight * boost(c.Name)
		if u < 0 {
			return c
		}
	}
	return cs.channels[len(cs.channels)-1]
}
