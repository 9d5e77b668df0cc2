package stream

import (
	"math/rand"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/netsim"
	"github.com/magellan-p2p/magellan/internal/protocol"
)

// buildSwarm wires n peers (plus a few servers) into a random mesh with
// about degree partners each.
func buildSwarm(n, degree int, seed int64) (*protocol.Table, []*protocol.Peer) {
	rng := rand.New(rand.NewSource(seed))
	cfg := swarmConfig(degree)
	tab := protocol.NewTable(n + 4)
	var peers []*protocol.Peer
	add := func(addr uint32, up float64, server bool) *protocol.Peer {
		host := netsim.Host{
			Addr: isp.Addr(addr),
			ISP:  isp.ChinaTelecom,
			Cap:  netsim.Capacity{UpKbps: up, DownKbps: 4 * up},
		}
		rate := 400.0
		if server {
			rate = 0
		}
		p := tab.Add(host, 9000, "CCTV1", rate, time.Time{})
		if server {
			p.MarkServer()
		}
		peers = append(peers, p)
		return p
	}
	for s := 0; s < 4; s++ {
		add(uint32(s+1), 8192, true)
	}
	for i := 0; i < n; i++ {
		add(uint32(100+i), 300+rng.Float64()*1500, false)
	}
	for _, p := range peers[4:] {
		for k := 0; k < degree; k++ {
			q := peers[rng.Intn(len(peers))]
			protocol.Connect(p, q, swarmLink(rng), cfg)
		}
	}
	return tab, peers
}

// swarmConfig is the protocol configuration of a swarm of the given
// degree: a cap well above it, so few connects are refused.
func swarmConfig(degree int) protocol.Config { return protocol.Config{MaxPartners: degree * 4} }

// swarmLink draws an edge's capacity and RTT from a spread, so supplier
// scores differ and the ranking has an order to keep.
func swarmLink(rng *rand.Rand) netsim.Link {
	return netsim.Link{
		RTT:          time.Duration(10+rng.Intn(190)) * time.Millisecond,
		CapacityKbps: 200 + rng.Float64()*1800,
	}
}

// churnSwarm replaces about frac of the swarm's partnerships, as joins
// and departures do between the sim's ticks: each step drops one random
// partnership of a random peer and connects it to a random other peer,
// so the next tick's rankings repair refilled slots.
func churnSwarm(tab *protocol.Table, peers []*protocol.Peer, cfg protocol.Config, frac float64, rng *rand.Rand) {
	sides := 0
	for _, p := range peers {
		sides += p.PartnerCount()
	}
	for k := int(frac * float64(sides) / 2); k > 0; k-- {
		p := peers[4+rng.Intn(len(peers)-4)] // the first four are servers
		if c := p.PartnerCount(); c > 0 {
			protocol.Disconnect(p, tab.Lookup(p.PartnerIDAt(rng.Intn(c))))
		}
		protocol.Connect(p, peers[rng.Intn(len(peers))], swarmLink(rng), cfg)
	}
}

func BenchmarkExchangeTick(b *testing.B) {
	sizes := []struct {
		name   string
		n      int
		degree int
	}{
		{name: "n500_d20", n: 500, degree: 20},
		{name: "n2000_d30", n: 2000, degree: 30},
	}
	for _, sz := range sizes {
		b.Run(sz.name, func(b *testing.B) {
			tab, peers := buildSwarm(sz.n, sz.degree, 1)
			e := NewExchange(Config{}, rand.New(rand.NewSource(2)))
			rng, cfg := rand.New(rand.NewSource(3)), swarmConfig(sz.degree)
			e.Tick(tab, peers, time.Minute) // every receiver's first ranking
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				churnSwarm(tab, peers, cfg, 0.1, rng)
				b.StartTimer()
				e.Tick(tab, peers, time.Minute)
			}
		})
	}
}

func BenchmarkComputeDepths(b *testing.B) {
	tab, peers := buildSwarm(2000, 30, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeDepths(tab, peers)
	}
}
