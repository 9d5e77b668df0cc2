// Package netsim provides the network substrate under the simulated UUSee
// overlay: per-peer access-link capacities drawn from the 2006 Chinese
// consumer mix (mostly ADSL and cable modems, per Sec. 4.2.2 of the
// paper), and a deterministic per-pair latency/throughput model in which
// intra-ISP paths are faster and less congested than inter-ISP paths.
//
// That asymmetry is the mechanism the paper credits for the "natural
// clustering" of peers inside each ISP: connections within an ISP have
// generally higher throughput and smaller delay, so quality-biased peer
// selection prefers them. netsim models the cause; the clustering itself
// emerges in the protocol layer.
package netsim

import (
	"fmt"
	"math/rand"
)

// Class is a peer's access-link technology class.
type Class uint8

// Access classes present in the 2006 UUSee population. ADSL and cable
// modems constitute the majority of users (Sec. 4.2.2); a minority sit
// behind links too slow to sustain the full 400 kbps stream, which is
// where Fig. 3's persistently under-served quarter comes from.
const (
	ClassADSL Class = iota + 1
	ClassCable
	ClassEthernet
	ClassCampus
	ClassModem
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassADSL:
		return "ADSL"
	case ClassCable:
		return "Cable"
	case ClassEthernet:
		return "Ethernet"
	case ClassCampus:
		return "Campus"
	case ClassModem:
		return "Modem"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// classSpec holds the nominal capacity and population weight of a class.
type classSpec struct {
	class    Class
	weight   float64
	upKbps   float64
	downKbps float64
}

// The population mix is chosen so the mean upload capacity (~900 kbps)
// exceeds the 400 kbps stream rate with real but not unlimited headroom,
// matching the paper's observation that "the streaming rate around 400
// Kbps is lower than the upload capacity of most ADSL/cable modem peers"
// while leaving around a quarter of viewers short of full rate (Fig. 3).
var _classes = []classSpec{
	{class: ClassADSL, weight: 0.47, upKbps: 384, downKbps: 1536},
	{class: ClassCable, weight: 0.21, upKbps: 576, downKbps: 3072},
	{class: ClassEthernet, weight: 0.07, upKbps: 3072, downKbps: 3072},
	{class: ClassCampus, weight: 0.07, upKbps: 1536, downKbps: 1536},
	{class: ClassModem, weight: 0.18, upKbps: 128, downKbps: 360},
}

// Capacity is a peer's total access bandwidth in kbps, the quantity each
// UUSee client estimates for itself and reports to the trace server.
type Capacity struct {
	UpKbps   float64
	DownKbps float64
}

// SampleClass draws an access class according to the population mix.
func SampleClass(rng *rand.Rand) Class {
	u := rng.Float64()
	for _, spec := range _classes {
		u -= spec.weight
		if u < 0 {
			return spec.class
		}
	}
	return _classes[len(_classes)-1].class
}

// SampleCapacity draws a capacity for the class, jittered ±20% around the
// nominal value to model line-quality variation.
func SampleCapacity(rng *rand.Rand, c Class) Capacity {
	for _, spec := range _classes {
		if spec.class != c {
			continue
		}
		jitter := func(v float64) float64 { return v * (0.8 + 0.4*rng.Float64()) }
		return Capacity{UpKbps: jitter(spec.upKbps), DownKbps: jitter(spec.downKbps)}
	}
	return Capacity{}
}
