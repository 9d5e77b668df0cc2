package opsurface

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/alert"
	"github.com/magellan-p2p/magellan/internal/obs"
	"github.com/magellan-p2p/magellan/internal/opsurface/opsurfacetest"
	"github.com/magellan-p2p/magellan/internal/tsdb"
)

// serve builds and serves a surface on an ephemeral port; the caller
// closes it.
func serve(t *testing.T, f Flags, o Options, p Plane) *Surface {
	t.Helper()
	f.HTTP = "127.0.0.1:0"
	if o.Binary == "" {
		o.Binary = "magellan-test"
	}
	s, err := New(f, o)
	if err != nil {
		t.Fatal(err)
	}
	s.Serve(p)
	return s
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

// TestFlagValidation pins the flag dependencies both daemons share.
func TestFlagValidation(t *testing.T) {
	if _, err := New(Flags{Alerts: true}, Options{}); err == nil {
		t.Error("-alerts without -history accepted")
	}
	if _, err := New(Flags{HistoryOut: "x"}, Options{}); err == nil {
		t.Error("-history-out without -history accepted")
	}
	if _, err := New(Flags{HTTP: "not an address"}, Options{}); err == nil || !strings.Contains(err.Error(), "-http") {
		t.Errorf("bad -http: err = %v, want an error naming -http", err)
	}
}

// TestSweepWithoutPlanes: with nothing but -http, every endpoint of the
// shared table mounts and answers.
func TestSweepWithoutPlanes(t *testing.T) {
	s := serve(t, Flags{}, Options{}, Plane{})
	defer s.Close()
	opsurfacetest.Sweep(t, "http://"+s.Addr(), false)
	resp, err := http.Get("http://" + s.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /debug/pprof/ without Pprof = %d, want 404", resp.StatusCode)
	}
}

// TestHealthzDrain pins the readiness lifecycle: 200 with the build
// version while serving, 503 "draining" once Drain runs.
func TestHealthzDrain(t *testing.T) {
	s := serve(t, Flags{}, Options{Binary: "magellan-serve"}, Plane{})
	defer s.Close()
	base := "http://" + s.Addr()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Status  string `json:"status"`
		Version string `json:"version"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode /healthz: %v", err)
	}
	if resp.StatusCode != http.StatusOK || body.Status != "ok" {
		t.Errorf("ready /healthz = %d %q, want 200 ok", resp.StatusCode, body.Status)
	}
	if !strings.Contains(body.Version, "magellan-serve") {
		t.Errorf("version = %q, want the binary's build string", body.Version)
	}

	s.Drain()
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode draining /healthz: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || body.Status != "draining" {
		t.Errorf("draining /healthz = %d %q, want 503 draining", resp.StatusCode, body.Status)
	}
}

// TestMethodNotAllowed pins 405 handling on /metrics and on a route the
// daemon mounts through the Routes hook.
func TestMethodNotAllowed(t *testing.T) {
	s := serve(t, Flags{}, Options{}, Plane{Routes: func(mux *http.ServeMux) {
		mux.Handle("/status", obs.JSONHandler(func() any { return map[string]int{"received": 0} }))
	}})
	defer s.Close()

	for _, path := range []string{"/status", "/metrics"} {
		resp, err := http.Post("http://"+s.Addr()+path, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != "GET" {
			t.Errorf("POST %s Allow = %q, want GET", path, allow)
		}
	}
}

// TestMetricsEndpoint scrapes /metrics and checks the exposition carries
// what the data plane registered on Registry, the build-info gauge and
// the journal metrics, with exactly one TYPE line per family.
func TestMetricsEndpoint(t *testing.T) {
	s, err := New(Flags{HTTP: "127.0.0.1:0"}, Options{Binary: "magellan-serve", Journal: obs.NewWallJournal(8)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Registry().Counter("magellan_ingest_received_total", "Reports received.").Inc()
	s.Serve(Plane{})

	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"magellan_ingest_received_total 1",
		`magellan_build_info{binary="magellan-serve"`,
		"magellan_journal_recorded_total",
		"magellan_process_goroutines",
		"magellan_alert_rules 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per family — duplicates break scrapers.
	seen := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			if seen[line] {
				t.Errorf("duplicate TYPE line: %s", line)
			}
			seen[line] = true
		}
	}
}

// lockedBuffer is a self-log sink the loop writes while the test reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSelfLog runs the surface with a fast self-log period and checks
// structured records carry the daemon's message and fields plus the
// alert counts, and stop once Drain returns.
func TestSelfLog(t *testing.T) {
	var sink lockedBuffer
	s, err := New(Flags{}, Options{SelfLog: 10 * time.Millisecond, LogSink: &sink})
	if err != nil {
		t.Fatal(err)
	}
	s.Serve(Plane{
		LogMsg: "ingest stats",
		LogFields: func() []any {
			return []any{"received", 7, "queueDrops", 0, "currentFile", "x.trace"}
		},
	})
	deadline := time.Now().Add(5 * time.Second)
	for sink.String() == "" && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	s.Drain()
	drained := sink.String()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	first, _, _ := strings.Cut(drained, "\n")
	if first == "" {
		t.Fatal("no self-log records")
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(first), &rec); err != nil {
		t.Fatalf("self-log record is not JSON: %v\n%s", err, first)
	}
	for _, key := range []string{"ts", "level", "msg", "received", "queueDrops", "currentFile", "alertsFiring", "alertsPending"} {
		if _, ok := rec[key]; !ok {
			t.Errorf("self-log record missing %q: %s", key, first)
		}
	}
	if rec["msg"] != "ingest stats" {
		t.Errorf("msg = %v, want the daemon's message", rec["msg"])
	}
	time.Sleep(30 * time.Millisecond)
	if got := sink.String(); got != drained {
		t.Errorf("self-log kept writing after Drain:\n%s", strings.TrimPrefix(got, drained))
	}
}

// TestHistoryAlerts drives the history and alerting planes: the sampler
// retains the data plane's series on /history, /alerts serves the
// default rule pack, and Close persists a JSONL snapshot
// magellan-report -health can load.
func TestHistoryAlerts(t *testing.T) {
	out := filepath.Join(t.TempDir(), "history.jsonl")
	s, err := New(Flags{HTTP: "127.0.0.1:0", History: 5 * time.Millisecond, HistoryCap: 128, HistoryOut: out, Alerts: true},
		Options{Binary: "magellan-test"})
	if err != nil {
		t.Fatal(err)
	}
	s.Registry().Counter("magellan_ingest_received_total", "Reports received.").Add(10)
	s.Serve(Plane{})
	base := "http://" + s.Addr()

	// Wait for the sampler to retain the received-report series.
	deadline := time.Now().Add(5 * time.Second)
	var pts []any
	for time.Now().Before(deadline) {
		var body map[string]any
		getJSON(t, base+"/history?metric=magellan_ingest_received_total", &body)
		if p, ok := body["points"].([]any); ok && len(p) > 0 {
			pts = p
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(pts) == 0 {
		t.Fatal("/history never retained magellan_ingest_received_total")
	}

	var alerts map[string]any
	getJSON(t, base+"/alerts", &alerts)
	rules, _ := alerts["rules"].([]any)
	if len(rules) != len(alert.DefaultRules()) {
		t.Fatalf("/alerts rules = %d, want %d", len(rules), len(alert.DefaultRules()))
	}
	if evals, _ := alerts["evals"].(float64); evals == 0 {
		t.Error("/alerts evals = 0, want > 0 (sampler should be evaluating)")
	}

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatalf("history snapshot missing: %v", err)
	}
	defer f.Close()
	db, err := tsdb.ReadJSONL(f, 0)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if db.Samples() == 0 {
		t.Error("persisted history holds no samples")
	}
	if got := db.Match("magellan_ingest_received_total"); len(got) == 0 {
		t.Error("persisted history lost the received-report series")
	}
}

// TestSamplerStopsBeforeFinalSample: Drain stops the sampler, so Close's
// final sample is the only one taken after it.
func TestSamplerStopsBeforeFinalSample(t *testing.T) {
	out := filepath.Join(t.TempDir(), "history.jsonl")
	s, err := New(Flags{History: time.Millisecond, HistoryOut: out}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Serve(Plane{})
	deadline := time.Now().Add(5 * time.Second)
	for s.History().Samples() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.Drain()
	drained := s.History().Samples()
	time.Sleep(20 * time.Millisecond)
	if got := s.History().Samples(); got != drained {
		t.Errorf("sampler kept sampling after Drain: %d samples, was %d", got, drained)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.History().Samples(); got != drained+1 {
		t.Errorf("Close took %d samples, want exactly 1", got-drained)
	}
}

// TestCloseWithoutServe: a surface the daemon abandons before Serve (its
// data plane failed) writes no history and releases its listener.
func TestCloseWithoutServe(t *testing.T) {
	out := filepath.Join(t.TempDir(), "history.jsonl")
	s, err := New(Flags{HTTP: "127.0.0.1:0", History: time.Second, HistoryOut: out}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("unserved surface wrote -history-out (stat err %v)", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listener not released: %v", err)
	}
	ln.Close()
}
