package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestReportEndToEnd(t *testing.T) {
	csvDir := filepath.Join(t.TempDir(), "csv")
	err := run([]string{
		"-seed", "6",
		"-duration", "2h",
		"-concurrency", "120",
		"-channels", "4",
		"-csv", csvDir,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	entries, err := os.ReadDir(csvDir)
	if err != nil {
		t.Fatalf("csv dir: %v", err)
	}
	if len(entries) != 11 {
		t.Errorf("csv export produced %d files, want 11", len(entries))
	}
}

func TestReportRejectsBadConfig(t *testing.T) {
	if err := run([]string{"-concurrency", "0"}); err == nil {
		t.Error("zero concurrency accepted")
	}
}

// badScaleFlags mirrors magellan-sim's table of scale flags that
// sim.Config would silently map to a default (zero channels, duration or
// tick) or that make no sense; magellan-report has no -shards flag.
var badScaleFlags = [][]string{
	{"-concurrency", "-50"},
	{"-channels", "0"},
	{"-channels", "-1"},
	{"-duration", "0"},
	{"-duration", "-1h"},
	{"-tick", "0"},
	{"-tick", "-1m"},
}

// TestReportRejectsBadScaleFlags: each bad scale flag fails the run with
// an error naming the flag. The name matters: a 20-minute run with valid
// flags also fails (no report is due yet), so any error is not enough.
func TestReportRejectsBadScaleFlags(t *testing.T) {
	for _, bad := range badScaleFlags {
		args := append([]string{"-duration", "20m", "-concurrency", "20", "-channels", "2",
			"-flashcrowd=false"}, bad...)
		if err := run(args); err == nil || !strings.Contains(err.Error(), bad[0]) {
			t.Errorf("%v: err = %v, want an error naming %s", bad, err, bad[0])
		}
	}
}
