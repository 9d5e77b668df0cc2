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
	cfg := protocol.DefaultConfig()
	cfg.MaxPartners = degree * 4
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
	link := netsim.Link{RTT: 40 * time.Millisecond, CapacityKbps: 1500}
	for _, p := range peers[4:] {
		for k := 0; k < degree; k++ {
			q := peers[rng.Intn(len(peers))]
			protocol.Connect(p, q, link, cfg)
		}
	}
	return tab, peers
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
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
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
