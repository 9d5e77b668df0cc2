package trace

import (
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/obs"
)

// TestServerJournal covers the server-plane flight-recorder events:
// accepted datagrams leave received+persisted (and the store adds
// accepted), decode and validation failures leave rejected.
func TestServerJournal(t *testing.T) {
	journal := obs.NewWallJournal(256)
	store := NewStore(10 * time.Minute)
	store.SetJournal(journal)
	srv := startServer(t, store, FleetConfig{Journal: journal})

	client, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	const n = 5
	for i := 0; i < n; i++ {
		if err := client.Submit(sampleReport(uint32(100+i), _t0)); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	if _, err := client.conn.Write([]byte("definitely not a report")); err != nil {
		t.Fatalf("write garbage: %v", err)
	}
	bad := sampleReport(0, _t0) // zero address fails validation
	if _, err := client.conn.Write(AppendReport(nil, &bad)); err != nil {
		t.Fatalf("write invalid: %v", err)
	}

	waitFor(t, func() bool { st := srv.Stats(); return st.Received == n && st.Dropped() == 2 })

	counts := make(map[obs.Verdict]int)
	for _, ev := range journal.Events() {
		counts[ev.Verdict]++
		if ev.At == 0 {
			t.Errorf("wall journal left event unstamped: %+v", ev)
		}
	}
	if counts[obs.VerdictReceived] != n || counts[obs.VerdictPersisted] != n {
		t.Errorf("received=%d persisted=%d, want %d each (counts %v)",
			counts[obs.VerdictReceived], counts[obs.VerdictPersisted], n, counts)
	}
	if counts[obs.VerdictAccepted] != n {
		t.Errorf("store accepted=%d, want %d", counts[obs.VerdictAccepted], n)
	}
	if counts[obs.VerdictRejected] != 2 {
		t.Errorf("rejected=%d, want 2 (one decode failure, one validation failure)", counts[obs.VerdictRejected])
	}
	if got := journal.StageCount(obs.StageServer); got != uint64(2*n+2) {
		t.Errorf("server-stage events = %d, want %d", got, 2*n+2)
	}
}
