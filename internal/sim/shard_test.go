package sim

import (
	"bytes"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/faults"
	"github.com/magellan-p2p/magellan/internal/trace"
)

// traceBytes runs cfg to completion and returns the trace stream's exact
// bytes.
func traceBytes(t *testing.T, cfg Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sink = w
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardedSimGoldenEquivalence pins the engine's central determinism
// contract: the shard count is a throughput knob, never a semantic one.
// A run fanned across N workers must produce the exact trace bytes of
// the sequential run, because everything order-sensitive (the receiver
// shuffle, the supplier-order merge, the float accumulation fold) stays
// on the tick's sequential spine.
func TestShardedSimGoldenEquivalence(t *testing.T) {
	configs := map[string]Config{
		"plain": {Seed: 42, Duration: 2 * time.Hour, MeanConcurrency: 150, ExtraChannels: 4},
		"churny": {
			Seed: 31, Duration: 2 * time.Hour, MeanConcurrency: 120, ExtraChannels: 3,
			Faults: faults.Config{Loss: 0.05, Duplicate: 0.05, Reorder: 0.03, JitterMax: 2 * time.Second, Truncate: 0.02},
			Churn: ChurnConfig{
				MassDepartures: []MassDeparture{{Offset: time.Hour, Fraction: 0.3}},
				Flapping:       Flapping{Fraction: 0.1},
			},
		},
	}
	for name, cfg := range configs {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg.Shards = 1
			want := traceBytes(t, cfg)
			if len(want) < 100 {
				t.Fatalf("sequential run produced only %d trace bytes; not a meaningful oracle", len(want))
			}
			for _, shards := range []int{2, 4, 7} {
				cfg.Shards = shards
				if got := traceBytes(t, cfg); !bytes.Equal(got, want) {
					t.Errorf("shards=%d trace differs from sequential run: %d vs %d bytes",
						shards, len(got), len(want))
				}
			}
		})
	}
}

// TestStatsMatchScan checks the incrementally maintained aggregates
// against a brute-force population scan at every progress boundary —
// the invariant that lets Stats() skip the scan entirely.
func TestStatsMatchScan(t *testing.T) {
	cfg := smallConfig(nil)
	cfg.Duration = 4 * time.Hour
	cfg.Churn = ChurnConfig{
		MassDepartures: []MassDeparture{{Offset: 2 * time.Hour, Fraction: 0.25}},
		Flapping:       Flapping{Fraction: 0.15},
	}
	store := trace.NewStore(0)
	cfg.Sink = store
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checks := 0
	var lastPVS float64
	s.cfg.Progress = func(st Stats) {
		checks++
		online, stable := 0, 0
		cutoff := st.Now.Add(-trace.DefaultInitialDelay)
		for _, p := range s.peers {
			if p.IsServer() {
				continue
			}
			online++
			if !p.JoinedAt.After(cutoff) {
				stable++
			}
		}
		if st.Online != online {
			t.Errorf("t=%v incremental Online=%d, scan says %d", st.Now, st.Online, online)
		}
		if st.Stable != stable {
			t.Errorf("t=%v incremental Stable=%d, scan says %d", st.Now, st.Stable, stable)
		}
		if st.PeerVirtualSeconds <= lastPVS {
			t.Errorf("t=%v PeerVirtualSeconds %.0f did not grow past %.0f", st.Now, st.PeerVirtualSeconds, lastPVS)
		}
		lastPVS = st.PeerVirtualSeconds
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if checks != 4 {
		t.Fatalf("progress fired %d times over 4h, want 4", checks)
	}
	if s.tab.Len() != s.online+s.servers {
		t.Errorf("table holds %d live slots, counters say %d online + %d servers",
			s.tab.Len(), s.online, s.servers)
	}
}
