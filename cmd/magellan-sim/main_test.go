package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
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
	})
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
	})
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
	if err := run([]string{"-history", "1s"}); err == nil {
		t.Error("-history without -http accepted")
	}
	if err := run([]string{"-http", "127.0.0.1:0", "-alerts"}); err == nil {
		t.Error("-alerts without -history accepted")
	}
	if err := run([]string{"-http", "127.0.0.1:0", "-history-out", "x"}); err == nil {
		t.Error("-history-out without -history accepted")
	}
}

func TestRunRejectsBadMode(t *testing.T) {
	if err := run([]string{"-mode", "carrier-pigeon"}); err == nil {
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
// instead of simulating something else.
func TestRunRejectsBadScaleFlags(t *testing.T) {
	dir := t.TempDir()
	for _, bad := range badScaleFlags {
		if args := badScaleArgs(dir, bad); run(args) == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunRejectsBadScaleFlagsWritesNothing: the scale flags are checked
// before any output is created, so a rejected run leaves no trace or
// ISP database file behind.
func TestRunRejectsBadScaleFlagsWritesNothing(t *testing.T) {
	for _, bad := range badScaleFlags {
		dir := t.TempDir()
		if run(badScaleArgs(dir, bad)) == nil {
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
		})
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
	})
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
	})
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
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
