// Tracereplay: exercise the real measurement pipeline of Sec. 3.2 — the
// simulated peers' reports travel as UDP datagrams over the loopback to a
// live trace server, exactly as deployed UUSee clients reported, and the
// analysis then runs over what the server stored.
//
//	go run ./examples/tracereplay
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"github.com/magellan-p2p/magellan/internal/core"
	"github.com/magellan-p2p/magellan/internal/sim"
	"github.com/magellan-p2p/magellan/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracereplay:", err)
		os.Exit(1)
	}
}

func run() error {
	// A one-member trace-server fleet, bound to an ephemeral UDP port.
	store := trace.NewStore(0)
	fleet, err := trace.NewFleet(trace.FleetAddrs("127.0.0.1", 1),
		func(int) (trace.Sink, error) { return store, nil }, trace.FleetConfig{})
	if err != nil {
		return err
	}
	defer fleet.Close()
	server := fleet.Server(0)
	log.Printf("trace server listening on %s", server.Addr())

	// The simulation ships every report through a real UDP client.
	client, err := trace.Dial(server.Addr().String())
	if err != nil {
		return err
	}
	defer client.Close()

	s, err := sim.New(sim.Config{
		Seed:            4,
		Duration:        3 * time.Hour,
		MeanConcurrency: 200,
		ExtraChannels:   4,
		Sink:            client,
	})
	if err != nil {
		return err
	}
	log.Println("simulating 3 hours; peers report over UDP...")
	if err := s.Run(); err != nil {
		return err
	}

	// UDP is fire-and-forget: wait briefly for in-flight datagrams.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && uint64(store.Len()) < s.Stats().Reports {
		time.Sleep(20 * time.Millisecond)
	}
	st := server.Stats()
	fmt.Printf("server ingested %d reports (%d dropped) across %d epochs\n",
		st.Received, st.Dropped(), len(store.Epochs()))

	// Analyze what actually landed at the server.
	res, err := core.Analyze(store, s.Database(), core.Config{Seed: 4})
	if err != nil {
		return err
	}
	fmt.Printf("stable/total share %.2f, mean indegree %.1f, rho %.2f\n",
		res.PeerCounts.StableShare,
		res.DegreeEvolution.In.Mean(),
		res.Reciprocity.All.Mean())
	fmt.Println("the wire changed nothing: the analysis pipeline is transport-agnostic")
	return nil
}
