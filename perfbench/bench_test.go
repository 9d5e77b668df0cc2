package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/trace"
)

// testScale shrinks every workload so one pass takes well under a second.
var testScale = scale{
	simPeers:    300,
	simDuration: time.Hour,
	input:       inputSpec{Duration: 4 * time.Hour, Mean: 80, Extra: 2},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAreValid(t *testing.T) {
	seen := make(map[string]bool)
	for _, m := range append(slices.Clone(endToEnd), perLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]", m.Name)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is invalid", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric %s is defined twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range perLayer {
		if m.Moves == "" {
			t.Errorf("per-layer metric %s does not say what it moves", m.Name)
		}
		if m.Workload != "" && runners[m.Workload] == nil {
			t.Errorf("per-layer metric %s names unknown workload %q", m.Name, m.Workload)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric table
// in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(runners) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(spec.Workloads), len(runners))
	}
	for _, w := range spec.Workloads {
		if runners[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("end-to-end %d: json %+v, code %+v", i, m, c)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		c := perLayer[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per-layer %d: json %+v, code %s %s %s", i, m, c.Name, c.Unit, c.Better)
		}
	}
}

// TestEveryMetricEmitted runs each workload at test scale, untraced and
// traced, and checks the result names exactly the metrics of its mode
// and that every check passed.
func TestEveryMetricEmitted(t *testing.T) {
	cache := t.TempDir()
	for _, wl := range []string{wlSim, wlAnalyze, wlIngest} {
		for _, traced := range []bool{false, true} {
			o := opts{workload: wl, seed: 3, seconds: 0.01, traced: traced, cacheDir: cache, scale: testScale}
			res, err := measure(o, runners[wl], os.Stderr)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var want, got []string
			for _, m := range defs {
				want = append(want, m.Name)
			}
			for name := range res.Metrics {
				got = append(got, name)
			}
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s traced=%v: metrics %v, want %v", wl, traced, got, want)
			}
			if !traced {
				for name, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, name, v.Value)
					}
				}
			}
		}
	}
}

// TestMutatedInputFailsFingerprint changes one partner counter in a
// cached trace, rewrites the recorded byte digest to match so only the
// fingerprint can notice, and expects loading to fail.
func TestMutatedInputFailsFingerprint(t *testing.T) {
	dir := t.TempDir()
	spec := testScale.input
	spec.Seed = 5
	if _, err := loadInput(dir, spec, ""); err != nil {
		t.Fatal(err)
	}
	tracePath, _, metaPath := entryPaths(dir, spec)
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	mutated := false
	for {
		r, err := rd.Next()
		if err != nil {
			break
		}
		if !mutated && len(r.Partners) > 0 {
			r.Partners[0].RecvSeg++
			mutated = true
		}
		if err := w.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !mutated {
		t.Fatal("no report with partners to mutate")
	}
	var meta inputMeta
	metaRaw, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(metaRaw, &meta); err != nil {
		t.Fatal(err)
	}
	meta.TraceSHA256 = sha256Hex(buf.Bytes())
	if metaRaw, err = json.Marshal(meta); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tracePath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metaPath, metaRaw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = loadInput(dir, spec, "")
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("mutated input loaded with err=%v, want a fingerprint mismatch", err)
	}
}

func TestCompareReportsDeltas(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, latency float64) string {
		hdr, _ := json.Marshal(header{Workload: wlSim, Seed: 7, Seconds: 1, Env: currentEnv()})
		res, _ := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
			"latency_p50_ms": {latency, "ms"},
		}})
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(string(hdr)+"\n"+string(res)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base, cur := write("base.jsonl", 100), write("new.jsonl", 90)
	var out bytes.Buffer
	if err := compareFiles(&out, base, cur); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "latency_p50_ms") || !strings.Contains(out.String(), "-10.00%") {
		t.Errorf("compare output lacks the delta:\n%s", out.String())
	}
}
