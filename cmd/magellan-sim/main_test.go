package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/opsurface/opsurfacetest"
	"github.com/magellan-p2p/magellan/internal/trace"
	"github.com/magellan-p2p/magellan/internal/tsdb"
)

func TestRunProducesLoadableArtifacts(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.trace")
	dbPath := filepath.Join(dir, "t.ispdb")

	err := run([]string{
		"-seed", "5",
		"-duration", "90m",
		"-concurrency", "120",
		"-channels", "4",
		"-trace", tracePath,
		"-ispdb", dbPath,
	}, io.Discard)
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatalf("open trace: %v", err)
	}
	defer f.Close()
	store, err := trace.LoadStore(f, 10*time.Minute)
	if err != nil {
		t.Fatalf("LoadStore: %v", err)
	}
	if store.Len() == 0 {
		t.Error("trace file holds no reports")
	}

	dbf, err := os.Open(dbPath)
	if err != nil {
		t.Fatalf("open ispdb: %v", err)
	}
	defer dbf.Close()
	db, err := isp.ReadDatabase(dbf)
	if err != nil {
		t.Fatalf("ReadDatabase: %v", err)
	}
	if db.Len() == 0 {
		t.Error("ISP database is empty")
	}
}

// TestRunHistoryAndSelfLog drives the sim with the full observability
// plane on: history sampler, alert engine, self-log, and the shutdown
// JSONL snapshot.
func TestRunHistoryAndSelfLog(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "history.jsonl")
	err := run([]string{
		"-seed", "3",
		"-duration", "2h",
		"-concurrency", "60",
		"-channels", "2",
		"-trace", filepath.Join(dir, "t.trace"),
		"-ispdb", filepath.Join(dir, "t.ispdb"),
		"-http", "127.0.0.1:0",
		"-history", "5ms",
		"-alerts",
		"-selflog", "10ms",
		"-history-out", out,
	}, io.Discard)
	if err != nil {
		t.Fatalf("run: %v", err)
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
	// The sim registry's gauges must be in the snapshot (the run ends
	// with a final sample even if it outpaced the ticker).
	if len(db.Match("magellan_sim_wall_seconds")) == 0 {
		t.Error("persisted history lost magellan_sim_wall_seconds")
	}
	if len(db.Match("magellan_alert_rules")) == 0 {
		t.Error("persisted history lost the alert meta-metrics")
	}
}

// TestRunHistoryFlagValidation pins the flag dependencies.
func TestRunHistoryFlagValidation(t *testing.T) {
	if err := run([]string{"-history", "1s"}, io.Discard); err == nil {
		t.Error("-history without -http accepted")
	}
	if err := run([]string{"-http", "127.0.0.1:0", "-alerts"}, io.Discard); err == nil {
		t.Error("-alerts without -history accepted")
	}
	if err := run([]string{"-http", "127.0.0.1:0", "-history-out", "x"}, io.Discard); err == nil {
		t.Error("-history-out without -history accepted")
	}
}

func TestRunRejectsBadMode(t *testing.T) {
	if err := run([]string{"-mode", "carrier-pigeon"}, io.Discard); err == nil {
		t.Error("bad -mode accepted")
	}
}

// badScaleFlags are scale flags that sim.Config would map to a default
// (zero channels, duration or tick) or that make no sense.
var badScaleFlags = [][]string{
	{"-shards", "-2"},
	{"-concurrency", "-50"},
	{"-channels", "0"},
	{"-channels", "-1"},
	{"-duration", "0"},
	{"-duration", "-1h"},
	{"-tick", "0"},
	{"-tick", "-1m"},
}

// badScaleArgs puts bad after small, valid defaults for everything else
// with outputs in dir, so a flag that is wrongly accepted runs quickly
// into dir and fails the test instead of hanging it.
func badScaleArgs(dir string, bad []string) []string {
	return append([]string{"-duration", "10m", "-concurrency", "20", "-channels", "2",
		"-flashcrowd=false",
		"-trace", filepath.Join(dir, "t.trace"),
		"-ispdb", filepath.Join(dir, "t.ispdb")}, bad...)
}

// TestRunRejectsBadScaleFlags: each bad scale flag must fail the run
// with an error naming the flag, instead of simulating something else.
func TestRunRejectsBadScaleFlags(t *testing.T) {
	dir := t.TempDir()
	for _, bad := range badScaleFlags {
		if err := run(badScaleArgs(dir, bad), io.Discard); err == nil || !strings.Contains(err.Error(), bad[0]) {
			t.Errorf("%v: err = %v, want an error naming %s", bad, err, bad[0])
		}
	}
}

// TestRunRejectsBadScaleFlagsWritesNothing: the scale flags are checked
// before any output is created, so a rejected run leaves no trace or
// ISP database file behind.
func TestRunRejectsBadScaleFlagsWritesNothing(t *testing.T) {
	for _, bad := range badScaleFlags {
		dir := t.TempDir()
		if run(badScaleArgs(dir, bad), io.Discard) == nil {
			t.Errorf("%v accepted", bad)
			continue
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			t.Errorf("%v: rejected run left %s behind", bad, e.Name())
		}
	}
}

// TestShardsProduceIdenticalTrace is the CLI half of the sharding
// contract: -shards changes throughput, never the trace bytes.
func TestShardsProduceIdenticalTrace(t *testing.T) {
	dir := t.TempDir()
	out := func(name string, shards string) []byte {
		tracePath := filepath.Join(dir, name+".trace")
		err := run([]string{
			"-seed", "5",
			"-duration", "1h",
			"-concurrency", "100",
			"-channels", "2",
			"-flashcrowd=false",
			"-shards", shards,
			"-trace", tracePath,
			"-ispdb", filepath.Join(dir, name+".ispdb"),
		}, io.Discard)
		if err != nil {
			t.Fatalf("run -shards %s: %v", shards, err)
		}
		b, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	seq := out("seq", "1")
	par := out("par", "0") // GOMAXPROCS workers
	if !bytes.Equal(seq, par) {
		t.Errorf("-shards 0 trace differs from -shards 1: %d vs %d bytes", len(par), len(seq))
	}
}

func TestRunTreeMode(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-duration", "45m",
		"-concurrency", "80",
		"-channels", "2",
		"-mode", "tree",
		"-flashcrowd=false",
		"-trace", filepath.Join(dir, "t.trace"),
		"-ispdb", filepath.Join(dir, "t.ispdb"),
	}, io.Discard)
	if err != nil {
		t.Fatalf("tree-mode run: %v", err)
	}
}

// TestChaosLossSweep is the CLI half of the chaos harness: a seeded run
// with nonzero loss and duplication must produce a loadable trace whose
// drop counters are nonzero but bounded by the configured rates.
func TestChaosLossSweep(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "chaos.trace")
	err := run([]string{
		"-seed", "11",
		"-duration", "2h",
		"-concurrency", "120",
		"-channels", "2",
		"-flashcrowd=false",
		"-loss", "0.05",
		"-dup", "0.02",
		"-trace", tracePath,
		"-ispdb", filepath.Join(dir, "chaos.ispdb"),
	}, io.Discard)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	store, err := trace.LoadStore(f, 10*time.Minute)
	if err != nil {
		t.Fatalf("LoadStore on chaos trace: %v", err)
	}
	if store.Len() == 0 {
		t.Fatal("chaos trace holds no reports")
	}
}

func TestChaosRejectsBadRates(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-loss", "1.5"},
		{"-dup", "-0.1"},
		{"-truncate", "2"},
		{"-jitter", "-1s"},
	} {
		args = append(args,
			"-duration", "10m", "-concurrency", "50",
			"-trace", filepath.Join(dir, "t.trace"),
			"-ispdb", filepath.Join(dir, "t.ispdb"))
		if err := run(args, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// syncBuffer is a bytes.Buffer that run's goroutine may write while the
// test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var metricsLine = regexp.MustCompile(`metrics on http://(\S+)/metrics`)

// TestRunEndpointSweep runs the shared endpoint table against a finished
// run's linger window. The run has neither -live nor -history, and every
// endpoint still answers; /healthz answers 503 "draining", and the sim
// mounts no /debug/pprof/.
func TestRunEndpointSweep(t *testing.T) {
	dir := t.TempDir()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-seed", "3", "-duration", "1h", "-concurrency", "60", "-channels", "2",
			"-flashcrowd=false", "-journal", "256",
			"-trace", filepath.Join(dir, "t.trace"),
			"-ispdb", filepath.Join(dir, "t.ispdb"),
			"-http", "127.0.0.1:0", "-linger", "3s",
		}, &out)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for !strings.Contains(out.String(), "lingering") {
		if time.Now().After(deadline) {
			t.Fatalf("run never reached its linger window:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	m := metricsLine.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no metrics address in output:\n%s", out.String())
	}
	base := "http://" + m[1]
	opsurfacetest.Sweep(t, base, true)

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
	if body.Status != "draining" || !strings.Contains(body.Version, "magellan-sim") {
		t.Errorf("lingering /healthz = %+v, want draining with the sim's version", body)
	}
	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /debug/pprof/ = %d, want 404: the sim mounts no pprof", resp.StatusCode)
	}
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunBusyHTTPLeavesTraceUntouched: the surface binds -http before
// any output is created, so a busy port fails the run and leaves an
// existing trace byte-identical.
func TestRunBusyHTTPLeavesTraceUntouched(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.trace")
	prior := []byte("an earlier run's trace")
	if err := os.WriteFile(tracePath, prior, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{
		"-duration", "10m", "-concurrency", "20", "-channels", "2", "-flashcrowd=false",
		"-trace", tracePath, "-ispdb", filepath.Join(dir, "t.ispdb"),
		"-http", busy.Addr().String(),
	}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-http") {
		t.Fatalf("busy -http: err = %v, want an -http error", err)
	}
	got, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, prior) {
		t.Errorf("busy -http rewrote the trace: %d bytes, want the %d prior bytes", len(got), len(prior))
	}
	if _, err := os.Stat(filepath.Join(dir, "t.ispdb")); !os.IsNotExist(err) {
		t.Errorf("busy -http created the ISP database (stat err %v)", err)
	}
}

// TestFlagPin pins every flag's name and default, so a new or changed
// flag shows up here as a deliberate diff.
func TestFlagPin(t *testing.T) {
	var got []string
	new(options).flagSet().VisitAll(func(f *flag.Flag) {
		got = append(got, "-"+f.Name+"="+f.DefValue)
	})
	want := []string{
		"-alerts=false",
		"-channels=48",
		"-concurrency=600",
		"-dup=0",
		"-duration=336h0m0s",
		"-flap-frac=0",
		"-flashcrowd=true",
		"-history=0s",
		"-history-cap=1024",
		"-history-out=",
		"-http=",
		"-ingest-shards=1",
		"-ispblind=false",
		"-ispdb=uusee.ispdb",
		"-jitter=0s",
		"-journal=0",
		"-journal-out=",
		"-linger=0s",
		"-live=false",
		"-loss=0",
		"-massdepart-at=0s",
		"-massdepart-frac=0.5",
		"-mode=mesh",
		"-norecommend=false",
		"-reorder=0",
		"-seed=1",
		"-selflog=0s",
		"-shards=1",
		"-tick=1m0s",
		"-trace=uusee.trace",
		"-truncate=0",
		"-v=false",
		"-version=false",
	}
	if !slices.Equal(got, want) {
		t.Errorf("flags =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
