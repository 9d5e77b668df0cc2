package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/faults"
	"github.com/magellan-p2p/magellan/internal/obs"
	"github.com/magellan-p2p/magellan/internal/sim"
	"github.com/magellan-p2p/magellan/internal/trace"
)

// writeArtifacts produces a small trace + ISP database pair on disk.
func writeArtifacts(t *testing.T, dir string) (string, string) {
	t.Helper()
	tracePath := filepath.Join(dir, "t.trace")
	dbPath := filepath.Join(dir, "t.ispdb")

	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(sim.Config{
		Seed:            9,
		Duration:        2 * time.Hour,
		MeanConcurrency: 120,
		ExtraChannels:   4,
		Sink:            w,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	dbf, err := os.Create(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	defer dbf.Close()
	if _, err := s.Database().WriteTo(dbf); err != nil {
		t.Fatal(err)
	}
	return tracePath, dbPath
}

func TestAnalyzeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	tracePath, dbPath := writeArtifacts(t, dir)
	csvDir := filepath.Join(dir, "csv")

	err := run([]string{
		"-trace", tracePath,
		"-ispdb", dbPath,
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
		t.Errorf("csv export produced %d files, want 11 figure panels", len(entries))
	}
}

func TestAnalyzeStreamingMode(t *testing.T) {
	dir := t.TempDir()
	tracePath, dbPath := writeArtifacts(t, dir)
	err := run([]string{
		"-trace", tracePath,
		"-ispdb", dbPath,
		"-stream",
	})
	if err != nil {
		t.Fatalf("streaming run: %v", err)
	}
}

func TestAnalyzeMissingInputs(t *testing.T) {
	if err := run([]string{"-trace", "/nonexistent.trace"}); err == nil {
		t.Error("missing trace accepted")
	}
	dir := t.TempDir()
	tracePath, _ := writeArtifacts(t, dir)
	if err := run([]string{"-trace", tracePath, "-ispdb", "/nonexistent.ispdb"}); err == nil {
		t.Error("missing ispdb accepted")
	}
}

// TestJournalExtendKeepsInput pins -journal's extend contract on a
// sharded sim journal: the input journal, shard labels included, must
// survive as an exact byte prefix of the rewritten file.
func TestJournalExtendKeepsInput(t *testing.T) {
	dir := t.TempDir()
	journal := obs.NewJournal(1 << 16)
	cfg := sim.Config{
		Seed:            5,
		Duration:        time.Hour,
		MeanConcurrency: 80,
		Faults:          faults.Config{Loss: 0.05},
		Journal:         journal,
	}
	var paths []string
	var writers []*trace.Writer
	for _, name := range []string{"t.trace.shard01", "t.trace.shard02"} {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		w, err := trace.NewWriter(f)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
		writers = append(writers, w)
		cfg.ShardSinks = append(cfg.ShardSinks, w)
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, w := range writers {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	var db bytes.Buffer
	if _, err := s.Database().WriteTo(&db); err != nil {
		t.Fatal(err)
	}
	dbPath := filepath.Join(dir, "t.ispdb")
	var in bytes.Buffer
	if err := journal.WriteJSONL(&in); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(in.Bytes(), []byte(`"shard":`)) {
		t.Fatal("sharded sim journal carries no shard labels")
	}
	journalPath := filepath.Join(dir, "journal.jsonl")
	for path, data := range map[string][]byte{dbPath: db.Bytes(), journalPath: in.Bytes()} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	err = run([]string{
		"-trace", paths[0] + "," + paths[1],
		"-ispdb", dbPath,
		"-journal", journalPath,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out, in.Bytes()) {
		t.Errorf("rewritten journal does not start with the input's %d bytes", in.Len())
	}
	if len(out) <= in.Len() {
		t.Errorf("journal not extended: %d bytes in, %d out", in.Len(), len(out))
	}
}
