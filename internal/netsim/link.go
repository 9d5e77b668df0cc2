package netsim

import (
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
)

// Host is the network identity of a peer: its address, ISP, and access
// capacity. The protocol layer decorates this with streaming state.
type Host struct {
	Addr isp.Addr
	ISP  isp.ISP
	Cap  Capacity
}

// Link describes the measured quality of a TCP connection between two
// hosts: the round-trip delay and the per-connection throughput ceiling.
// These are the two quantities each UUSee peer measures on its partner
// connections before choosing whom to stream from (Sec. 3.1).
type Link struct {
	RTT          time.Duration
	CapacityKbps float64
	// SameISP records whether both endpoints share an ISP. The deployed
	// client never consults it (ISP locality emerges from quality
	// alone); the future-work locality experiment biases supplier
	// selection with it.
	SameISP bool
}

// Score is the suitability metric peer selection ranks partners by:
// achievable throughput, discounted by delay. Higher is better.
func (l Link) Score() float64 {
	ms := float64(l.RTT) / float64(time.Millisecond)
	return l.CapacityKbps / (1 + ms/100)
}

// pathCategory classifies a host pair for the latency/congestion model.
type pathCategory uint8

const (
	_pathIntraISP pathCategory = iota + 1
	_pathDomesticCross
	_pathChinaOversea
	_pathOverseaOversea
)

// Baseline RTTs and inter-network congestion discounts per category. The
// numbers model the well-documented state of Chinese inter-carrier peering
// circa 2006: crossing the Telecom/Netcom boundary cost most of a
// connection's throughput, and trans-Pacific paths cost more still.
// An array indexed by category: Link reads it once per connection, far
// too often to hash a map key each time.
var _pathSpec = [...]struct {
	baseRTT   time.Duration
	congested float64 // multiplier on per-connection throughput
}{
	_pathIntraISP:       {baseRTT: 25 * time.Millisecond, congested: 1.0},
	_pathDomesticCross:  {baseRTT: 85 * time.Millisecond, congested: 0.35},
	_pathChinaOversea:   {baseRTT: 230 * time.Millisecond, congested: 0.15},
	_pathOverseaOversea: {baseRTT: 140 * time.Millisecond, congested: 0.5},
}

// _tcpWindowBits is the effective TCP window used to derive the
// per-connection throughput ceiling (window / RTT): 16 KB, typical for
// 2006-era consumer stacks without window scaling.
const _tcpWindowBits = 16 * 1024 * 8

// Network derives deterministic link properties for any host pair. The
// same pair always measures the same link (up to the seed), which mirrors
// reality — path quality is a property of the route — and keeps
// simulations reproducible.
type Network struct {
	// seedHash is the FNV-1a state after the seed's eight bytes, the
	// prefix every pair's hash shares.
	seedHash uint64

	// ISPBlind, when set, erases the intra-/inter-ISP quality asymmetry:
	// every pair is treated as a mid-quality domestic path. Used by the
	// ablation experiments to show ISP clustering is caused by the
	// asymmetry rather than by the protocol.
	ISPBlind bool
}

// NewNetwork builds a network model with the given seed.
func NewNetwork(seed uint64) *Network {
	v := uint64(_fnvOffset)
	for i := 0; i < 64; i += 8 {
		v ^= (seed >> i) & 0xff
		v *= _fnvPrime
	}
	return &Network{seedHash: v}
}

// Link returns the link quality between two hosts for data flowing
// from a to b. The RTT, the jitter and SameISP depend only on the
// unordered pair, but the endpoint cap is directional: capacity is
// limited by a's uplink and b's downlink, so Link(a,b) == Link(b,a)
// only when min(a's up, b's down) equals min(b's up, a's down).
func (n *Network) Link(a, b Host) Link {
	cat := n.classify(a.ISP, b.ISP)
	spec := _pathSpec[cat]

	rttJitter, capJitter := n.pairJitter(a.Addr, b.Addr)
	// Jitter in [0.6, 1.8): long tails exist, but most paths sit near the
	// category baseline.
	rtt := time.Duration(float64(spec.baseRTT) * (0.6 + 1.2*rttJitter))

	capKbps := _tcpWindowBits / rtt.Seconds() / 1000 // kbps achievable at this RTT
	capKbps *= spec.congested * (0.7 + 0.6*capJitter)

	// A connection can never beat the slower endpoint's access link.
	if lim := minf(a.Cap.UpKbps, b.Cap.DownKbps); capKbps > lim {
		capKbps = lim
	}
	return Link{RTT: rtt, CapacityKbps: capKbps, SameISP: a.ISP == b.ISP && a.ISP != isp.Unknown}
}

func (n *Network) classify(a, b isp.ISP) pathCategory {
	if n.ISPBlind {
		return _pathDomesticCross
	}
	switch {
	case a == b:
		return _pathIntraISP
	case a == isp.Oversea && b == isp.Oversea:
		return _pathOverseaOversea
	case a == isp.Oversea || b == isp.Oversea:
		return _pathChinaOversea
	default:
		return _pathDomesticCross
	}
}

// 64-bit FNV-1a parameters, and the prime to the fourth power: four
// zero bytes leave the xor a no-op, so they hash as one multiply.
const (
	_fnvOffset = 14695981039346656037
	_fnvPrime  = 1099511628211
	_fnvPrime4 = _fnvPrime * _fnvPrime * _fnvPrime * _fnvPrime % (1 << 64)
)

// pairJitter hashes the unordered pair into two uniform values in [0, 1):
// 64-bit FNV-1a over the little-endian bytes of (seed, lo, hi), computed
// inline because Link runs once per connection attempt. The seed's bytes
// are hashed once, in NewNetwork, and each address's four high bytes are
// zero, so a pair costs ten multiplies instead of twenty-four.
func (n *Network) pairJitter(a, b isp.Addr) (float64, float64) {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	v := n.seedHash
	for _, w := range [2]isp.Addr{lo, hi} {
		for i := 0; i < 32; i += 8 {
			v ^= uint64(w>>i) & 0xff
			v *= _fnvPrime
		}
		v *= _fnvPrime4
	}
	const norm = float64(1<<32 - 1)
	return float64(v>>32) / norm, float64(v&0xffffffff) / norm
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
