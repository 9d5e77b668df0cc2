package obs

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixedClock returns a logger whose timestamps are pinned, so record
// bytes are fully deterministic.
func fixedClock(l *Logger) *Logger {
	l.now = func() time.Time {
		return time.Date(2026, 8, 5, 12, 0, 0, 123456789, time.UTC)
	}
	return l
}

func TestLoggerGolden(t *testing.T) {
	var sb strings.Builder
	l := fixedClock(NewLogger(&sb, LevelDebug))
	l.Info("sink rotated",
		"path", "out/trace-000042.mlog",
		"bytes", uint64(1048576),
		"epoch", 42,
		"ratio", 0.5,
		"ok", true,
		"err", nil,
	)
	want := `{"ts":"2026-08-05T12:00:00.123456789Z","level":"info","msg":"sink rotated",` +
		`"path":"out/trace-000042.mlog","bytes":1048576,"epoch":42,"ratio":0.5,"ok":true,"err":null}` + "\n"
	if got := sb.String(); got != want {
		t.Errorf("record mismatch:\n got %s\nwant %s", got, want)
	}
	// Each record must also be valid JSON.
	var m map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &m); err != nil {
		t.Fatalf("record is not valid JSON: %v", err)
	}
}

func TestLoggerValueKinds(t *testing.T) {
	var sb strings.Builder
	l := fixedClock(NewLogger(&sb, LevelDebug))
	l.Debug("kinds",
		"dur", 1500*time.Millisecond,
		"err", errors.New(`boom "quoted"`),
		"neg", int64(-7),
		"odd_key", // dangling key
	)
	got := sb.String()
	for _, want := range []string{`"dur":"1.5s"`, `"err":"boom \"quoted\""`, `"neg":-7`, `"!missing-value":"odd_key"`} {
		if !strings.Contains(got, want) {
			t.Errorf("record missing %s:\n%s", want, got)
		}
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(got), &m); err != nil {
		t.Fatalf("record is not valid JSON: %v\n%s", err, got)
	}
}

func TestLoggerLevelFilter(t *testing.T) {
	var sb strings.Builder
	l := fixedClock(NewLogger(&sb, LevelWarn))
	l.Debug("no")
	l.Info("no")
	l.Warn("yes")
	l.Error("yes")
	if got := strings.Count(sb.String(), "\n"); got != 2 {
		t.Fatalf("records = %d, want 2:\n%s", got, sb.String())
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.Debug("x")
	l.Info("x", "k", "v")
	l.Warn("x")
	l.Error("x")
	if l.Dropped() != 0 {
		t.Fatal("nil logger reported drops")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("sink gone") }

func TestLoggerCountsDrops(t *testing.T) {
	l := fixedClock(NewLogger(failWriter{}, LevelInfo))
	l.Info("one")
	l.Error("two")
	if got := l.Dropped(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
}

func TestLoggerConcurrent(t *testing.T) {
	var mu sync.Mutex
	var sb strings.Builder
	lockedWrite := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return sb.Write(p)
	})
	l := NewLogger(lockedWrite, LevelInfo)
	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.Info("tick", "worker", w, "i", i)
			}
		}(w)
	}
	wg.Wait()
	mu.Lock()
	out := sb.String()
	mu.Unlock()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != workers*iters {
		t.Fatalf("records = %d, want %d", len(lines), workers*iters)
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d is not valid JSON (interleaved write?): %v\n%s", i, err, line)
		}
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestLevelString pins the level names written into each record's
// "level" field, and the fallback for a value outside the four levels.
func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{
		LevelDebug: "debug", LevelInfo: "info", LevelWarn: "warn", LevelError: "error",
		Level(9): "level(9)", Level(-1): "level(-1)",
	} {
		if got := l.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", int8(l), got, want)
		}
	}
}
