package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestRepoIsClean runs the full suite over the repository itself: the
// invariants magellan-vet enforces must hold here, always. This is the
// same gate CI runs via `go run ./cmd/magellan-vet ./...`.
func TestRepoIsClean(t *testing.T) {
	chdirModuleRoot(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("magellan-vet ./... = exit %d\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
}

// TestNoStaleWaivers runs the waiver audit over the repository: every
// //magellan:allow directive must still suppress at least one finding.
func TestNoStaleWaivers(t *testing.T) {
	chdirModuleRoot(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-waivers", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("magellan-vet -waivers ./... = exit %d\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
}

// TestListNamesAllAnalyzers pins the suite roster: adding or removing an
// analyzer should be a deliberate, test-visible act.
func TestListNamesAllAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list = exit %d, stderr: %s", code, stderr.String())
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	want := []string{
		"determinism", "erridle", "floatcmp", "goroleak", "hotalloc",
		"lockspan", "maporder", "timetaint",
	}
	if !slices.Equal(got, want) {
		t.Errorf("-list roster = %v, want %v", got, want)
	}
}

// TestBrokenPackageExitsTwo pins the load-failure contract: a package
// that does not type-check must produce exit 2 with the type error on
// stderr, and no findings — partial analysis over broken code would be
// silently incomplete.
func TestBrokenPackageExitsTwo(t *testing.T) {
	chdirModuleRoot(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"./internal/analysis/testdata/src/brokenfx"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit = %d, want 2\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "brokenfx") {
		t.Errorf("stderr does not name the broken package:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "not analyzing") {
		t.Errorf("stderr does not state that analysis was refused:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("findings were printed for a broken package:\n%s", stdout.String())
	}
}

// hotallocFixture is a real, type-checking package with known findings,
// loadable by explicit path (testdata is invisible to ./...).
const hotallocFixture = "./internal/analysis/testdata/src/hotallocfx"

// TestJSONReport checks the machine-readable output shape end to end
// over a package with known findings.
func TestJSONReport(t *testing.T) {
	chdirModuleRoot(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", hotallocFixture}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (fixture has findings)\nstderr:\n%s", code, stderr.String())
	}
	var report struct {
		Tool     string `json:"tool"`
		Findings []struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &report); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, stdout.String())
	}
	if report.Tool != "magellan-vet" {
		t.Errorf("tool = %q", report.Tool)
	}
	if len(report.Findings) == 0 {
		t.Fatal("no findings in JSON report")
	}
	for _, f := range report.Findings {
		if f.Analyzer != "hotalloc" {
			t.Errorf("unexpected analyzer %q in fixture findings", f.Analyzer)
		}
		if filepath.IsAbs(f.File) {
			t.Errorf("finding path %q is absolute, want repo-relative", f.File)
		}
	}
}

// TestSARIFReport checks the SARIF envelope: version, driver name, one
// result per finding, rules for all nine analyzers.
func TestSARIFReport(t *testing.T) {
	chdirModuleRoot(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-sarif", hotallocFixture}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid SARIF JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version %q, %d runs", log.Version, len(log.Runs))
	}
	if got := log.Runs[0].Tool.Driver.Name; got != "magellan-vet" {
		t.Errorf("driver name = %q", got)
	}
	if got := len(log.Runs[0].Tool.Driver.Rules); got != len(analyzers) {
		t.Errorf("%d rules, want %d", got, len(analyzers))
	}
	if len(log.Runs[0].Results) == 0 {
		t.Error("no results in SARIF log")
	}
}

// TestBaselineRoundTrip records the fixture's findings to a baseline
// and checks that a second run with -baseline suppresses all of them.
func TestBaselineRoundTrip(t *testing.T) {
	chdirModuleRoot(t)
	base := filepath.Join(t.TempDir(), "baseline.json")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-write-baseline", base, hotallocFixture}, &stdout, &stderr); code != 0 {
		t.Fatalf("-write-baseline = exit %d\nstderr:\n%s", code, stderr.String())
	}
	if _, err := os.Stat(base); err != nil {
		t.Fatalf("baseline not written: %v", err)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-baseline", base, hotallocFixture}, &stdout, &stderr); code != 0 {
		t.Fatalf("with baseline, exit = %d, want 0\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "suppressed") {
		t.Errorf("stderr does not mention baselined suppressions:\n%s", stderr.String())
	}
}

// TestJSONAndSARIFAreExclusive pins the flag contract.
func TestJSONAndSARIFAreExclusive(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "-sarif", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func chdirModuleRoot(t *testing.T) {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			t.Chdir(dir)
			return
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above working directory")
		}
		dir = parent
	}
}
