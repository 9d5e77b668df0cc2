// Command magellan-vet runs Magellan's custom static-analysis suite —
// the machine-checked form of the invariants the reproduction rests on:
//
//	determinism  no ambient randomness/clock/env in the simulator core
//	erridle      no silently discarded errors
//	floatcmp     no exact equality between computed floats in metric code
//	goroleak     no goroutine without a reachable stop path
//	hotalloc     no per-iteration allocation in //magellan:hotpath loops
//	lockspan     no mutex held across blocking ops (CFG dataflow)
//	maporder     no map-iteration order leaking into output
//	timetaint    no transitive ambient reads inside the simulator core
//
// Usage:
//
//	magellan-vet [flags] [packages]
//
// Run it from the module root; packages default to ./... . With -govet
// it also runs the standard `go vet` over the same patterns, so one
// command gives the full gate used by CI. Exit status is 1 when any
// analyzer (or go vet) reports a finding, 2 when a package fails to
// load or type-check — analysis results over broken code would be
// partial, so none are printed.
//
// Machine-readable output: -json and -sarif emit the findings as a
// JSON report or a SARIF 2.1.0 log on stdout. -baseline suppresses
// findings recorded in a baseline file; -write-baseline records the
// current findings to one, letting a new analyzer land strict.
//
// Individual findings can be waived, visibly, with a trailing comment:
//
//	f.Close() //magellan:allow erridle — best-effort cleanup
//
// -waivers lists every such directive with the number of findings it
// suppressed in this run; stale directives (suppressing nothing) exit
// non-zero so dead waivers cannot accumulate.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"github.com/magellan-p2p/magellan/internal/analysis"
	"github.com/magellan-p2p/magellan/internal/analysis/load"
	"github.com/magellan-p2p/magellan/internal/analysis/passes/determinism"
	"github.com/magellan-p2p/magellan/internal/analysis/passes/erridle"
	"github.com/magellan-p2p/magellan/internal/analysis/passes/floatcmp"
	"github.com/magellan-p2p/magellan/internal/analysis/passes/goroleak"
	"github.com/magellan-p2p/magellan/internal/analysis/passes/hotalloc"
	"github.com/magellan-p2p/magellan/internal/analysis/passes/lockspan"
	"github.com/magellan-p2p/magellan/internal/analysis/passes/maporder"
	"github.com/magellan-p2p/magellan/internal/analysis/passes/timetaint"
	"github.com/magellan-p2p/magellan/internal/obs/buildinfo"
)

// analyzers is the suite, in the order findings are attributed.
var analyzers = []*analysis.Analyzer{
	determinism.Analyzer,
	erridle.Analyzer,
	floatcmp.Analyzer,
	goroleak.Analyzer,
	hotalloc.Analyzer,
	lockspan.Analyzer,
	maporder.Analyzer,
	timetaint.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("magellan-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		govet         = fs.Bool("govet", false, "also run `go vet` over the same patterns")
		list          = fs.Bool("list", false, "list the analyzers and exit")
		version       = fs.Bool("version", false, "print version and exit")
		jsonOut       = fs.Bool("json", false, "emit findings as a JSON report on stdout")
		sarifOut      = fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log on stdout")
		baselinePath  = fs.String("baseline", "", "suppress findings recorded in this baseline `file`")
		writeBaseline = fs.String("write-baseline", "", "record current findings to this baseline `file` and exit 0")
		waivers       = fs.Bool("waivers", false, "list every //magellan:allow directive; exit 1 if any is stale")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		printf(stdout, "%s\n", buildinfo.String("magellan-vet"))
		return 0
	}
	if *list {
		for _, a := range analyzers {
			printf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *jsonOut && *sarifOut {
		printf(stderr, "magellan-vet: -json and -sarif are mutually exclusive\n")
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := load.Packages(".", patterns...)
	if err != nil {
		printf(stderr, "magellan-vet: %v\n", err)
		printf(stderr, "magellan-vet: packages failed to load; not analyzing\n")
		return 2
	}
	// A package that fails to load or type-check poisons every analysis
	// downstream of it: facts would be missing, taint would silently
	// not propagate, CFGs would be built over half-typed ASTs. Refuse
	// to report anything rather than report something partial.
	broken := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			broken = true
			printf(stderr, "magellan-vet: %s: %v\n", pkg.ImportPath, terr)
		}
	}
	if broken {
		printf(stderr, "magellan-vet: packages failed to type-check; not analyzing\n")
		return 2
	}

	res, err := analysis.RunAll(pkgs, analyzers)
	if err != nil {
		printf(stderr, "magellan-vet: %v\n", err)
		return 2
	}

	cwd, _ := os.Getwd()
	if *waivers {
		return reportWaivers(stdout, res.Waivers, cwd)
	}

	findings := analysis.Findings(res.Diags, pkgs, cwd)
	if *writeBaseline != "" {
		if err := analysis.WriteBaseline(*writeBaseline, findings); err != nil {
			printf(stderr, "magellan-vet: %v\n", err)
			return 2
		}
		printf(stderr, "magellan-vet: recorded %d finding(s) to %s\n", len(findings), *writeBaseline)
		return 0
	}
	if *baselinePath != "" {
		base, err := analysis.LoadBaseline(*baselinePath)
		if err != nil {
			printf(stderr, "magellan-vet: %v\n", err)
			return 2
		}
		var accepted []analysis.Finding
		findings, accepted = base.Filter(findings)
		if len(accepted) > 0 {
			printf(stderr, "magellan-vet: %d baselined finding(s) suppressed\n", len(accepted))
		}
	}

	failed := len(findings) > 0
	switch {
	case *jsonOut:
		if err := analysis.WriteJSON(stdout, findings); err != nil {
			printf(stderr, "magellan-vet: %v\n", err)
			return 2
		}
	case *sarifOut:
		if err := analysis.WriteSARIF(stdout, findings, analyzers); err != nil {
			printf(stderr, "magellan-vet: %v\n", err)
			return 2
		}
	default:
		for _, f := range findings {
			printf(stdout, "%s:%d:%d: %s (%s)\n", f.File, f.Line, f.Column, f.Message, f.Analyzer)
		}
	}

	if *govet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout = stdout
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

// reportWaivers prints every directive with its suppression count and
// fails if any directive did nothing this run.
func reportWaivers(stdout io.Writer, waivers []analysis.Waiver, cwd string) int {
	stale := 0
	for _, w := range waivers {
		name := w.Position.Filename
		if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
		status := fmt.Sprintf("suppressed %d", w.Suppressed)
		if w.Stale() {
			status = "STALE — suppresses nothing; remove it"
			stale++
		}
		printf(stdout, "%s:%d: //magellan:allow %s: %s\n",
			name, w.Position.Line, strings.Join(w.Names, ","), status)
	}
	printf(stdout, "%d waiver(s), %d stale\n", len(waivers), stale)
	if stale > 0 {
		return 1
	}
	return 0
}

// printf writes console output; a failed write to the vet tool's own
// stdout/stderr leaves nothing sensible to do.
func printf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...) //magellan:allow erridle — console output is best-effort
}
