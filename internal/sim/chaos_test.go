package sim

import (
	"bytes"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/faults"
	"github.com/magellan-p2p/magellan/internal/trace"
)

// chaosRun executes a short simulation and returns its binary trace bytes
// and final stats.
func chaosRun(t *testing.T, cfg Config) ([]byte, Stats) {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sink = w
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), s.Stats()
}

func chaosConfig() Config {
	return Config{
		Seed:            31,
		Duration:        3 * time.Hour,
		MeanConcurrency: 150,
		ExtraChannels:   3,
	}
}

// TestChaosZeroRatesByteIdentical pins the guarantee the golden
// fingerprint depends on: a config whose fault and churn fields are left
// zero produces exactly the trace a fault-unaware build produced.
func TestChaosZeroRatesByteIdentical(t *testing.T) {
	plain, plainStats := chaosRun(t, chaosConfig())
	zeroed := chaosConfig()
	zeroed.Faults = faults.Config{}
	zeroed.Churn = ChurnConfig{}
	again, _ := chaosRun(t, zeroed)
	if !bytes.Equal(plain, again) {
		t.Fatal("explicit zero fault/churn config changed the trace bytes")
	}
	if plainStats.Faults != (faults.Tally{}) || plainStats.TornReports != 0 ||
		plainStats.Flaps != 0 || plainStats.MassDeparted != 0 {
		t.Errorf("fault-free run reports fault activity: %+v", plainStats)
	}
}

// TestChaosDeterminism is the reproducibility half of the acceptance
// criteria: with a fixed seed and nonzero rates, two runs produce
// identical traces and identical fault accounting.
func TestChaosDeterminism(t *testing.T) {
	cfg := chaosConfig()
	cfg.Faults = faults.Config{
		Loss:      0.05,
		Duplicate: 0.05,
		Reorder:   0.03,
		JitterMax: 2 * time.Second,
		Truncate:  0.02,
	}
	cfg.Churn = ChurnConfig{
		MassDepartures: []MassDeparture{{Offset: 90 * time.Minute, Fraction: 0.3}},
		Flapping:       Flapping{Fraction: 0.1},
	}
	a, aStats := chaosRun(t, cfg)
	b, bStats := chaosRun(t, cfg)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed, same fault config, different trace bytes")
	}
	if aStats.Faults != bStats.Faults || aStats.TornReports != bStats.TornReports ||
		aStats.Flaps != bStats.Flaps || aStats.MassDeparted != bStats.MassDeparted {
		t.Errorf("fault accounting differs across identical runs:\n a: %+v\n b: %+v", aStats, bStats)
	}
	if aStats.Faults.Dropped == 0 || aStats.Faults.Duplicated == 0 || aStats.TornReports == 0 {
		t.Errorf("chaos run injected nothing: %+v", aStats.Faults)
	}
}

// TestChaosLossChangesOnlyTheTrace pins the injection boundary: faults
// live on the measurement path, so the overlay's evolution (joins,
// departures, per-peer state) is identical with and without them — only
// what the trace server receives differs.
func TestChaosLossChangesOnlyTheTrace(t *testing.T) {
	plain, plainStats := chaosRun(t, chaosConfig())
	lossy := chaosConfig()
	lossy.Faults = faults.Config{Loss: 0.25}
	trace25, lossyStats := chaosRun(t, lossy)

	if lossyStats.Joins != plainStats.Joins {
		t.Errorf("loss injection changed the overlay: %d joins vs %d", lossyStats.Joins, plainStats.Joins)
	}
	if lossyStats.Reports >= plainStats.Reports {
		t.Errorf("25%% loss did not shrink the trace: %d vs %d reports", lossyStats.Reports, plainStats.Reports)
	}
	if len(trace25) >= len(plain) {
		t.Errorf("lossy trace (%d bytes) not smaller than clean trace (%d bytes)", len(trace25), len(plain))
	}
	frac := float64(lossyStats.Faults.Dropped) / float64(lossyStats.Faults.Datagrams)
	if frac < 0.15 || frac > 0.35 {
		t.Errorf("drop fraction %.3f far from configured 0.25", frac)
	}
}

// TestChaosLossyTraceStillAnalyzable loads a faulty trace back through
// the standard reader: every surviving record must decode.
func TestChaosLossyTraceStillAnalyzable(t *testing.T) {
	cfg := chaosConfig()
	cfg.Faults = faults.Config{Loss: 0.1, Duplicate: 0.1, Reorder: 0.05, JitterMax: 3 * time.Second}
	raw, stats := chaosRun(t, cfg)
	store, err := trace.LoadStore(bytes.NewReader(raw), 0)
	if err != nil {
		t.Fatalf("LoadStore on faulty trace: %v", err)
	}
	if uint64(store.Len()) != stats.Reports {
		t.Errorf("store holds %d reports, stats say %d", store.Len(), stats.Reports)
	}
	if stats.Reports == 0 {
		t.Fatal("faulty run produced an empty trace")
	}
}

func TestChaosMassDeparture(t *testing.T) {
	cfg := chaosConfig()
	cfg.Churn.MassDepartures = []MassDeparture{{Offset: 2 * time.Hour, Fraction: 0.9}}
	_, stats := chaosRun(t, cfg)
	// The event tears down ~90% of a ~150-peer population in one instant;
	// the cumulative count must show the purge happened.
	if stats.MassDeparted < 50 {
		t.Fatalf("mass departure removed only %d peers", stats.MassDeparted)
	}
}

func TestChaosFlappingPeers(t *testing.T) {
	cfg := chaosConfig()
	cfg.Churn.Flapping = Flapping{Fraction: 0.3}
	_, stats := chaosRun(t, cfg)
	if stats.Flaps == 0 {
		t.Fatal("flapping config produced no flaps")
	}
	// Every flap is a departure+rejoin; joins must exceed a flap-free
	// run's arrivals by roughly the rejoin count.
	_, plain := chaosRun(t, chaosConfig())
	if stats.Joins <= plain.Joins {
		t.Errorf("flapping run made %d joins, flap-free run %d", stats.Joins, plain.Joins)
	}
}

// TestChurnValidation exercises the config guardrails.
func TestChurnValidation(t *testing.T) {
	bad := []Config{
		func() Config { c := chaosConfig(); c.Faults.Loss = 1.5; return c }(),
		func() Config { c := chaosConfig(); c.Faults.JitterMax = -time.Second; return c }(),
		func() Config {
			c := chaosConfig()
			c.Churn.MassDepartures = []MassDeparture{{Offset: -time.Hour, Fraction: 0.5}}
			return c
		}(),
		func() Config {
			c := chaosConfig()
			c.Churn.MassDepartures = []MassDeparture{{Offset: time.Hour, Fraction: 1.2}}
			return c
		}(),
		func() Config { c := chaosConfig(); c.Churn.Flapping.Fraction = -0.1; return c }(),
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}
