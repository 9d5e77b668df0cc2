package alert

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/obs"
	"github.com/magellan-p2p/magellan/internal/tsdb"
)

func sec(n int64) int64 { return n * int64(time.Second) }

// harness wires a registry, history store, and engine with a scripted
// clock: tick() advances one second, samples, and evaluates.
type harness struct {
	reg *obs.Registry
	db  *tsdb.DB
	eng *Engine
	t   int64
}

func newHarness(t *testing.T, rules []Rule) *harness {
	t.Helper()
	h := &harness{reg: obs.NewRegistry()}
	h.db = tsdb.New(h.reg, tsdb.Config{Capacity: 256})
	eng, err := New(h.db, rules, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h.eng = eng
	return h
}

func (h *harness) tick() {
	h.t += sec(1)
	h.db.SampleAt(h.t)
	h.eng.EvalAt(h.t)
}

func (h *harness) state(t *testing.T, rule string) RuleStatus {
	t.Helper()
	for _, st := range h.eng.Status() {
		if st.Rule.Name == rule {
			return st
		}
	}
	t.Fatalf("rule %q not found", rule)
	return RuleStatus{}
}

// TestTransitionTable drives one rule through every edge of the state
// machine: inactive→pending, pending→inactive (condition lapsed before
// the dwell), inactive→pending→firing (dwell held), firing→inactive
// (resolved), and the direct inactive→firing edge when For is zero.
func TestTransitionTable(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("depth", "")
	db := tsdb.New(reg, tsdb.Config{Capacity: 64})
	eng, err := New(db, []Rule{
		{Name: "dwell", Metric: "depth", Kind: Threshold, Threshold: 5, For: 2 * time.Second},
		{Name: "nodwell", Metric: "depth", Kind: Threshold, Threshold: 5},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Scripted depth per one-second instant; the dwell rule needs the
	// condition held ≥ 2s to fire, the no-dwell rule fires immediately.
	script := []float64{0, 8, 0, 8, 8, 8, 8, 0}
	var ts int64
	for _, v := range script {
		ts += sec(1)
		g.Set(v)
		db.SampleAt(ts)
		eng.EvalAt(ts)
	}
	trans, dropped := eng.Transitions()
	if dropped != 0 {
		t.Fatalf("dropped = %d", dropped)
	}
	want := []Transition{
		// t=2s: depth 8 — dwell arms, nodwell fires outright.
		{T: sec(2), Rule: "dwell", From: Inactive, To: Pending, Value: 8},
		{T: sec(2), Rule: "nodwell", From: Inactive, To: Firing, Value: 8},
		// t=3s: depth 0 — condition lapsed before the dwell elapsed.
		{T: sec(3), Rule: "dwell", From: Pending, To: Inactive, Value: 0},
		{T: sec(3), Rule: "nodwell", From: Firing, To: Inactive, Value: 0},
		// t=4s: depth 8 again; dwell re-arms, fires at t=6s (held 2s).
		{T: sec(4), Rule: "dwell", From: Inactive, To: Pending, Value: 8},
		{T: sec(4), Rule: "nodwell", From: Inactive, To: Firing, Value: 8},
		{T: sec(6), Rule: "dwell", From: Pending, To: Firing, Value: 8},
		// t=8s: depth 0 — both resolve.
		{T: sec(8), Rule: "dwell", From: Firing, To: Inactive, Value: 0},
		{T: sec(8), Rule: "nodwell", From: Firing, To: Inactive, Value: 0},
	}
	if !reflect.DeepEqual(trans, want) {
		t.Fatalf("transition log:\n got %+v\nwant %+v", trans, want)
	}
	if got := eng.TransitionsTotal(); got != uint64(len(want)) {
		t.Fatalf("TransitionsTotal = %d, want %d", got, len(want))
	}
}

// TestKinds covers each rule kind's measurement semantics.
func TestKinds(t *testing.T) {
	t.Run("rate", func(t *testing.T) {
		reg := obs.NewRegistry()
		ctr := reg.Counter("drops_total", "")
		db := tsdb.New(reg, tsdb.Config{Capacity: 64})
		eng, err := New(db, []Rule{{
			Name: "r", Metric: "drops_total", Kind: Rate, Threshold: 0, Window: 10 * time.Second,
		}}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		var ts int64
		step := func(add uint64) {
			ts += sec(1)
			ctr.Add(add)
			db.SampleAt(ts)
			eng.EvalAt(ts)
		}
		step(0)
		step(0)
		if f, _ := eng.Counts(); f != 0 {
			t.Fatal("flat counter should not fire a rate rule")
		}
		step(5)
		if f, _ := eng.Counts(); f != 1 {
			t.Fatal("increasing counter should fire")
		}
		// Flat again: the window still holds the increment until it ages out.
		for i := 0; i < 12; i++ {
			step(0)
		}
		if f, _ := eng.Counts(); f != 0 {
			t.Fatal("rate rule should resolve once the increment ages out of the window")
		}
	})

	t.Run("burnrate", func(t *testing.T) {
		reg := obs.NewRegistry()
		errs := reg.Counter("errs_total", "")
		recv := reg.Counter("recv_total", "")
		db := tsdb.New(reg, tsdb.Config{Capacity: 64})
		eng, err := New(db, []Rule{{
			Name: "b", Metric: "errs_total", Denom: "recv_total", Kind: BurnRate,
			Threshold: 0.05, Window: 10 * time.Second,
		}}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		var ts int64
		step := func(e, r uint64) {
			ts += sec(1)
			errs.Add(e)
			recv.Add(r)
			db.SampleAt(ts)
			eng.EvalAt(ts)
		}
		step(0, 0) // no traffic: denominator rate zero → not firing
		step(0, 0)
		if f, _ := eng.Counts(); f != 0 {
			t.Fatal("zero traffic must not fire a burn-rate rule")
		}
		step(1, 100) // 1% burn
		if f, _ := eng.Counts(); f != 0 {
			t.Fatal("1% burn under a 5% threshold must not fire")
		}
		step(50, 100) // cumulative burn now 51/200 > 5%
		if f, _ := eng.Counts(); f != 1 {
			t.Fatal("25%+ burn should fire")
		}
	})

	t.Run("skew", func(t *testing.T) {
		reg := obs.NewRegistry()
		var vals [2]uint64
		reg.ShardCounterFunc("recv_total", "", 2, func(i int) uint64 { return vals[i] })
		db := tsdb.New(reg, tsdb.Config{Capacity: 64})
		eng, err := New(db, []Rule{{
			Name: "s", Metric: "recv_total", Kind: Skew, Threshold: 0.5, Window: 10 * time.Second,
		}}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		vals = [2]uint64{100, 90}
		db.SampleAt(sec(1))
		eng.EvalAt(sec(1))
		if f, _ := eng.Counts(); f != 0 {
			t.Fatal("10% skew under a 50% threshold must not fire")
		}
		vals[1] = 10 // skew (100-10)/100 = 0.9
		db.SampleAt(sec(2))
		eng.EvalAt(sec(2))
		if f, _ := eng.Counts(); f != 1 {
			t.Fatal("90% skew should fire")
		}
	})

	t.Run("skew needs a family", func(t *testing.T) {
		reg := obs.NewRegistry()
		reg.Gauge("solo", "").Set(100)
		db := tsdb.New(reg, tsdb.Config{Capacity: 8})
		eng, err := New(db, []Rule{{
			Name: "s", Metric: "solo", Kind: Skew, Threshold: 0, Window: 10 * time.Second,
		}}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		db.SampleAt(sec(1))
		eng.EvalAt(sec(1))
		if f, _ := eng.Counts(); f != 0 {
			t.Fatal("a single series can not skew")
		}
	})

	t.Run("absence", func(t *testing.T) {
		reg := obs.NewRegistry()
		reg.Gauge("heartbeat", "").Set(1)
		db := tsdb.New(reg, tsdb.Config{Capacity: 64})
		eng, err := New(db, []Rule{{
			Name: "a", Metric: "heartbeat", Kind: Absence, Window: 5 * time.Second,
		}}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		db.SampleAt(sec(1))
		eng.EvalAt(sec(1))
		if f, _ := eng.Counts(); f != 0 {
			t.Fatal("fresh sample must not fire absence")
		}
		// No samples for 10s: the window empties.
		eng.EvalAt(sec(11))
		if f, _ := eng.Counts(); f != 1 {
			t.Fatal("stale window should fire absence")
		}
		db.SampleAt(sec(12))
		eng.EvalAt(sec(12))
		if f, _ := eng.Counts(); f != 0 {
			t.Fatal("a new sample should resolve absence")
		}
	})
}

// TestDeterministicTransitionLog replays the same scripted overload
// twice and requires byte-identical transition logs — the contract the
// CI overload smoke and magellan-report -health rest on.
func TestDeterministicTransitionLog(t *testing.T) {
	run := func() []Transition {
		reg := obs.NewRegistry()
		drops := reg.Counter("magellan_ingest_queue_drops_total", "")
		lag := reg.Gauge("magellan_live_watermark_lag_epochs", "")
		db := tsdb.New(reg, tsdb.Config{Capacity: 256})
		eng, err := New(db, DefaultRules(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		var ts int64
		for i := 0; i < 120; i++ {
			ts += sec(1)
			if i > 20 && i < 50 { // overload burst
				drops.Add(uint64(3 + i%5))
			}
			lag.Set(float64(i % 7))
			db.SampleAt(ts)
			eng.EvalAt(ts)
		}
		trans, _ := eng.Transitions()
		return trans
	}
	a, b := run(), run()
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("transition logs diverge:\n%s\n%s", ja, jb)
	}
	if len(a) == 0 {
		t.Fatal("overload script produced no transitions")
	}
	// The queue-drop rule must both fire and resolve in this script.
	var fired, resolved bool
	for _, tr := range a {
		if tr.Rule == "ingest-queue-drop-rate" {
			if tr.To == Firing {
				fired = true
			}
			if tr.From == Firing && tr.To == Inactive {
				resolved = true
			}
		}
	}
	if !fired || !resolved {
		t.Fatalf("queue-drop rule fired=%v resolved=%v, want both", fired, resolved)
	}
}

// TestTransitionCap pins the drop-oldest accounting.
func TestTransitionCap(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("v", "")
	db := tsdb.New(reg, tsdb.Config{Capacity: 512})
	eng, err := New(db, []Rule{{Name: "flap", Metric: "v", Kind: Threshold, Threshold: 0}},
		Config{MaxTransitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	var ts int64
	// Flap on/off: first instant (v=0) stays inactive, every later
	// instant toggles — 9 transitions across 10 evals.
	for i := 0; i < 10; i++ {
		ts += sec(1)
		g.Set(float64(i % 2))
		db.SampleAt(ts)
		eng.EvalAt(ts)
	}
	trans, dropped := eng.Transitions()
	if len(trans) != 4 || dropped != 5 {
		t.Fatalf("retained %d dropped %d, want 4/5", len(trans), dropped)
	}
	if eng.TransitionsTotal() != 9 {
		t.Fatalf("TransitionsTotal = %d, want 9", eng.TransitionsTotal())
	}
	// Retained log is the newest 4, still oldest-first.
	for i := 1; i < len(trans); i++ {
		if trans[i].T <= trans[i-1].T {
			t.Fatal("retained transitions out of order")
		}
	}
	if trans[len(trans)-1].T != sec(10) {
		t.Fatalf("newest retained transition at %d, want %d", trans[len(trans)-1].T, sec(10))
	}
}

// TestValidation pins the rule-pack construction errors.
func TestValidation(t *testing.T) {
	cases := map[string][]Rule{
		"empty name":       {{Metric: "m", Kind: Threshold}},
		"duplicate name":   {{Name: "a", Metric: "m", Kind: Threshold}, {Name: "a", Metric: "m", Kind: Threshold}},
		"empty metric":     {{Name: "a", Kind: Threshold}},
		"unknown kind":     {{Name: "a", Metric: "m", Kind: "median"}},
		"bad op":           {{Name: "a", Metric: "m", Kind: Threshold, Op: ">="}},
		"rate sans window": {{Name: "a", Metric: "m", Kind: Rate}},
		"burn sans denom":  {{Name: "a", Metric: "m", Kind: BurnRate, Window: time.Second}},
	}
	for name, rules := range cases {
		if _, err := New(nil, rules, Config{}); err == nil {
			t.Errorf("%s: New accepted invalid pack", name)
		}
	}
	if _, err := New(nil, DefaultRules(), Config{}); err != nil {
		t.Errorf("DefaultRules invalid: %v", err)
	}
}

// TestHandler pins the /alerts JSON shape, the method guard, and the
// nil-engine empty response.
func TestHandler(t *testing.T) {
	h := newHarness(t, []Rule{{Name: "r", Metric: "x", Kind: Threshold, Threshold: 0, Severity: "warning"}})
	h.reg.Gauge("x", "").Set(5)
	h.tick()

	rec := httptest.NewRecorder()
	Handler(h.eng).ServeHTTP(rec, httptest.NewRequest("GET", "/alerts", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var p alertsPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if p.Firing != 1 || len(p.Rules) != 1 || p.Rules[0].State != Firing || len(p.Transitions) != 1 {
		t.Fatalf("payload: %+v", p)
	}

	rec = httptest.NewRecorder()
	Handler(h.eng).ServeHTTP(rec, httptest.NewRequest("POST", "/alerts", nil))
	if rec.Code != 405 {
		t.Fatalf("POST status %d, want 405", rec.Code)
	}

	rec = httptest.NewRecorder()
	Handler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/alerts", nil))
	if rec.Code != 200 {
		t.Fatalf("nil engine status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 0 || p.Firing != 0 {
		t.Fatalf("nil engine payload: %+v", p)
	}
}

// TestMetaMetrics pins the magellan_alert_* meta-metric surface.
func TestMetaMetrics(t *testing.T) {
	h := newHarness(t, DefaultRules())
	RegisterMetrics(h.reg, h.eng)
	h.tick()
	snap := h.reg.Snapshot(nil)
	want := map[string]bool{
		"magellan_alert_rules":             false,
		"magellan_alert_firing":            false,
		"magellan_alert_pending":           false,
		"magellan_alert_evals_total":       false,
		"magellan_alert_transitions_total": false,
	}
	for _, s := range snap {
		if _, ok := want[s.Series]; ok {
			want[s.Series] = true
			if s.Series == "magellan_alert_rules" && s.Value != float64(len(DefaultRules())) {
				t.Errorf("magellan_alert_rules = %v", s.Value)
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("meta-metric %s missing from snapshot", name)
		}
	}
}

// TestNilEngineZeroAllocs pins the disabled plane's cost: nothing.
func TestNilEngineZeroAllocs(t *testing.T) {
	var e *Engine
	if n := testing.AllocsPerRun(100, func() {
		e.Eval()
		e.EvalAt(1)
		if f, p := e.Counts(); f != 0 || p != 0 {
			t.Fatal("nil engine counts nonzero")
		}
		if e.Rules() != 0 || e.Evals() != 0 {
			t.Fatal("nil engine state nonzero")
		}
	}); n != 0 {
		t.Fatalf("nil engine costs %v allocs/op, want 0", n)
	}
}
