package trace

import (
	"testing"
	"time"
)

// startServer runs a one-member fleet on an ephemeral loopback port
// and returns its server; the fleet closes when the test ends.
func startServer(t *testing.T, sink Sink, cfg FleetConfig) *Server {
	t.Helper()
	f, err := NewFleet(FleetAddrs("127.0.0.1", 1), func(int) (Sink, error) { return sink, nil }, cfg)
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f.Server(0)
}

func TestServerEndToEnd(t *testing.T) {
	store := NewStore(10 * time.Minute)
	srv := startServer(t, store, FleetConfig{})

	client, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	const n = 50
	for i := 0; i < n; i++ {
		if err := client.Submit(sampleReport(uint32(100+i), _t0.Add(time.Duration(i)*time.Second))); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}

	waitFor(t, func() bool { return store.Len() == n })
	if st := srv.Stats(); st.Received != n || st.Dropped() != 0 {
		t.Errorf("stats %+v, want %d received and none dropped", st, n)
	}

	// The stored reports survive the wire intact.
	e := store.Epochs()[0]
	latest := latestByPeer(store, e)
	rep, ok := latest[100]
	if !ok {
		t.Fatal("peer 100's report missing from store")
	}
	if rep.Channel != "CCTV1" || len(rep.Partners) != 3 {
		t.Errorf("report mangled in flight: %+v", rep)
	}
}

func TestServerDropsGarbage(t *testing.T) {
	store := NewStore(10 * time.Minute)
	srv := startServer(t, store, FleetConfig{})

	client, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	// Raw garbage datagram.
	if _, err := client.conn.Write([]byte("definitely not a report")); err != nil {
		t.Fatalf("write garbage: %v", err)
	}
	// Structurally valid encoding that fails validation (zero address).
	bad := sampleReport(0, _t0)
	buf := AppendReport(nil, &bad)
	if _, err := client.conn.Write(buf); err != nil {
		t.Fatalf("write invalid: %v", err)
	}
	// One good report so we can synchronize.
	if err := client.Submit(sampleReport(55, _t0)); err != nil {
		t.Fatalf("Submit: %v", err)
	}

	waitFor(t, func() bool { st := srv.Stats(); return st.Received == 1 && st.Dropped() == 2 })
	if store.Len() != 1 {
		t.Errorf("store holds %d reports, want only the valid one", store.Len())
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := startServer(t, Discard, FleetConfig{})
	if err := srv.Close(); err != nil {
		t.Errorf("first Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestClientRejectsOversizedReport(t *testing.T) {
	srv := startServer(t, Discard, FleetConfig{})
	client, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	big := sampleReport(9, _t0)
	big.Channel = string(make([]byte, 70*1024))
	if err := client.Submit(big); err == nil {
		t.Error("oversized report accepted")
	}
}

// waitFor polls cond for up to five seconds; UDP delivery on loopback is
// fast but asynchronous.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached within deadline")
}
