package netsim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
)

func TestSampleClassDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	counts := make(map[Class]int)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[SampleClass(rng)]++
	}
	for _, spec := range _classes {
		got := float64(counts[spec.class]) / n
		if math.Abs(got-spec.weight) > 0.01 {
			t.Errorf("%v sampled at %.4f, want %.4f ± 0.01", spec.class, got, spec.weight)
		}
	}
}

// TestClassWeightsSumToOne: SampleClass walks the cumulative weights
// with one uniform draw, so the mix must be a distribution over
// distinct classes; otherwise a class is never drawn or the last class
// absorbs the remainder.
func TestClassWeightsSumToOne(t *testing.T) {
	seen := make(map[Class]bool, len(_classes))
	var sum float64
	for _, spec := range _classes {
		if spec.weight <= 0 {
			t.Errorf("%v has weight %v, want > 0", spec.class, spec.weight)
		}
		if seen[spec.class] {
			t.Errorf("%v listed twice", spec.class)
		}
		seen[spec.class] = true
		sum += spec.weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v, want 1", sum)
	}
}

func TestSampleCapacityWithinJitterBand(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tests := []struct {
		class  Class
		nomUp  float64
		nomDwn float64
	}{
		{class: ClassADSL, nomUp: 384, nomDwn: 1536},
		{class: ClassCable, nomUp: 576, nomDwn: 3072},
		{class: ClassEthernet, nomUp: 3072, nomDwn: 3072},
		{class: ClassCampus, nomUp: 1536, nomDwn: 1536},
		{class: ClassModem, nomUp: 128, nomDwn: 360},
	}
	for _, tt := range tests {
		t.Run(tt.class.String(), func(t *testing.T) {
			for i := 0; i < 1000; i++ {
				c := SampleCapacity(rng, tt.class)
				if c.UpKbps < tt.nomUp*0.8 || c.UpKbps > tt.nomUp*1.2 {
					t.Fatalf("UpKbps = %.1f outside [%.1f, %.1f]", c.UpKbps, tt.nomUp*0.8, tt.nomUp*1.2)
				}
				if c.DownKbps < tt.nomDwn*0.8 || c.DownKbps > tt.nomDwn*1.2 {
					t.Fatalf("DownKbps = %.1f outside band", c.DownKbps)
				}
			}
		})
	}
}

func TestSampleCapacityUnknownClass(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if c := SampleCapacity(rng, Class(99)); c.UpKbps != 0 || c.DownKbps != 0 {
		t.Errorf("unknown class capacity = %+v, want zero", c)
	}
}

func TestMeanUploadExceedsStreamRate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += SampleCapacity(rng, SampleClass(rng)).UpKbps
	}
	mean := sum / n
	// The paper's resource-balance argument requires mean upload to exceed
	// the 400 kbps stream rate with real headroom — but not so much that
	// Fig. 3's ~25% under-served population disappears.
	if mean < 550 || mean > 1100 {
		t.Errorf("mean upload %.0f kbps, want within [550, 1100] (1.4–2.7x stream rate)", mean)
	}
}

func host(addr uint32, p isp.ISP, up float64) Host {
	return Host{Addr: isp.Addr(addr), ISP: p, Cap: Capacity{UpKbps: up, DownKbps: 4 * up}}
}

func TestLinkSymmetry(t *testing.T) {
	n := NewNetwork(77)
	prop := func(a, b uint32, pa, pb uint8) bool {
		ha := host(a, isp.ISP(pa%8), 1000)
		hb := host(b, isp.ISP(pb%8), 1000)
		// Symmetric capacity so the endpoint limit is symmetric too.
		return n.Link(ha, hb) == n.Link(hb, ha)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestLinkDeterministic(t *testing.T) {
	n := NewNetwork(42)
	a := host(1000, isp.ChinaTelecom, 448)
	b := host(2000, isp.ChinaNetcom, 768)
	first := n.Link(a, b)
	for i := 0; i < 10; i++ {
		if got := n.Link(a, b); got != first {
			t.Fatalf("Link changed across calls: %+v != %+v", got, first)
		}
	}
}

func TestIntraISPBeatsInterISP(t *testing.T) {
	n := NewNetwork(1)
	rng := rand.New(rand.NewSource(4))
	var intraRTT, interRTT, intraCap, interCap float64
	const trials = 2000
	for i := 0; i < trials; i++ {
		a := host(rng.Uint32(), isp.ChinaTelecom, 10000)
		same := host(rng.Uint32(), isp.ChinaTelecom, 10000)
		other := host(rng.Uint32(), isp.ChinaNetcom, 10000)
		li := n.Link(a, same)
		lx := n.Link(a, other)
		intraRTT += li.RTT.Seconds()
		interRTT += lx.RTT.Seconds()
		intraCap += li.CapacityKbps
		interCap += lx.CapacityKbps
	}
	if intraRTT >= interRTT {
		t.Errorf("mean intra-ISP RTT %.4fs not below inter-ISP %.4fs", intraRTT/trials, interRTT/trials)
	}
	if intraCap <= interCap {
		t.Errorf("mean intra-ISP capacity %.0f not above inter-ISP %.0f", intraCap/trials, interCap/trials)
	}
}

func TestOverseaPathsAreSlowest(t *testing.T) {
	n := NewNetwork(1)
	rng := rand.New(rand.NewSource(5))
	var domestic, oversea float64
	const trials = 2000
	for i := 0; i < trials; i++ {
		a := host(rng.Uint32(), isp.ChinaTelecom, 10000)
		b := host(rng.Uint32(), isp.ChinaNetcom, 10000)
		c := host(rng.Uint32(), isp.Oversea, 10000)
		domestic += n.Link(a, b).RTT.Seconds()
		oversea += n.Link(a, c).RTT.Seconds()
	}
	if oversea <= domestic {
		t.Errorf("mean China-oversea RTT %.4fs not above domestic cross %.4fs",
			oversea/trials, domestic/trials)
	}
}

func TestISPBlindErasesAsymmetry(t *testing.T) {
	n := NewNetwork(1)
	n.ISPBlind = true
	rng := rand.New(rand.NewSource(6))
	var intra, inter float64
	const trials = 4000
	for i := 0; i < trials; i++ {
		a := host(rng.Uint32(), isp.ChinaTelecom, 10000)
		same := host(rng.Uint32(), isp.ChinaTelecom, 10000)
		other := host(rng.Uint32(), isp.ChinaNetcom, 10000)
		intra += n.Link(a, same).CapacityKbps
		inter += n.Link(a, other).CapacityKbps
	}
	ratio := intra / inter
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("ISP-blind intra/inter capacity ratio = %.3f, want ≈ 1", ratio)
	}
}

func TestLinkRespectsEndpointCapacity(t *testing.T) {
	n := NewNetwork(1)
	a := Host{Addr: 1, ISP: isp.ChinaTelecom, Cap: Capacity{UpKbps: 100, DownKbps: 100}}
	b := Host{Addr: 2, ISP: isp.ChinaTelecom, Cap: Capacity{UpKbps: 100, DownKbps: 100}}
	if l := n.Link(a, b); l.CapacityKbps > 100 {
		t.Errorf("link capacity %.1f exceeds endpoint limit 100", l.CapacityKbps)
	}
}

func TestLinkRTTPositive(t *testing.T) {
	n := NewNetwork(99)
	prop := func(a, b uint32) bool {
		l := n.Link(host(a, isp.ChinaTelecom, 448), host(b, isp.Oversea, 448))
		return l.RTT > 0 && l.RTT < 2*time.Second && l.CapacityKbps > 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestScoreOrdersByQuality(t *testing.T) {
	good := Link{RTT: 20 * time.Millisecond, CapacityKbps: 2000}
	bad := Link{RTT: 300 * time.Millisecond, CapacityKbps: 200}
	if good.Score() <= bad.Score() {
		t.Errorf("Score(good)=%.1f not above Score(bad)=%.1f", good.Score(), bad.Score())
	}
}

func TestDifferentSeedsDifferentLinks(t *testing.T) {
	a := host(1000, isp.ChinaTelecom, 10000)
	b := host(2000, isp.ChinaTelecom, 10000)
	l1 := NewNetwork(1).Link(a, b)
	l2 := NewNetwork(2).Link(a, b)
	if l1 == l2 {
		t.Error("different seeds produced identical links (jitter not seeded)")
	}
}

// TestPairJitterMatchesFNV pins the inline hash to hash/fnv's 64-bit
// FNV-1a over the 24 little-endian bytes of (seed, lo, hi), the
// encoding every trace pin was computed with, for both argument orders.
func TestPairJitterMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		seed := rng.Uint64()
		a, b := isp.Addr(rng.Uint32()), isp.Addr(rng.Uint32())
		if i%4 == 0 {
			b = a + isp.Addr(rng.Intn(3)) // equal and adjacent addresses too
		}
		lo, hi := min(a, b), max(a, b)
		var buf [24]byte
		binary.LittleEndian.PutUint64(buf[0:], seed)
		binary.LittleEndian.PutUint64(buf[8:], uint64(lo))
		binary.LittleEndian.PutUint64(buf[16:], uint64(hi))
		h := fnv.New64a()
		_, _ = h.Write(buf[:])
		v := h.Sum64()
		const norm = float64(1<<32 - 1)
		want1, want2 := float64(v>>32)/norm, float64(v&0xffffffff)/norm

		n := NewNetwork(seed)
		for _, pair := range [2][2]isp.Addr{{a, b}, {b, a}} {
			if g1, g2 := n.pairJitter(pair[0], pair[1]); g1 != want1 || g2 != want2 {
				t.Fatalf("pairJitter(seed %#x, %v, %v) = (%v, %v), hash/fnv gives (%v, %v)",
					seed, pair[0], pair[1], g1, g2, want1, want2)
			}
		}
	}
}
