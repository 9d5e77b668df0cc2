// Command perfbench is the repository's benchmark. One invocation runs
// one workload over the measurement loop — the simulator (sim-10k), the
// batch and streaming analyzers (analyze-36h), or the sharded UDP ingest
// fleet feeding the live analyzer (ingest-live) — checks every output
// against pinned fingerprints or cross-path equalities, and prints two
// JSON lines: a header recording the workload and environment, then the
// result. An untraced run reports the end-to-end metrics; a traced run
// (-trace 1) reports the per-layer metrics, timed from outside each
// layer's public calls, and the tracing overhead.
//
//	bash perfbench/run.sh --workload sim-10k --seed 7 --seconds 20 --trace 0
//	bash perfbench/run.sh --compare base.jsonl new.jsonl
//
// A result file is the captured standard output of any number of runs;
// -compare prints, per workload and metric, the median of each file and
// the change relative to the first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// Pins for the default seeds at full scale.
const (
	simPinSeed = 7
	simPinSHA  = "ddf8af4d65d7be96ee219a95df24cd2eacbea86afb6ea7fee626b04b6068b7ee"

	inputPinSeed     = 11
	inputPinFP       = "2a58964cd1585067f9a90bbc9bc701dd4811deee9c10e1d14eca4ae6d713bda3"
	analyzePinRender = "df6e2e62b21635837a357b07f1f25442db823811c51f76e4bed755a8362aa801"
)

// scale sizes the workloads. The benchmark runs fullScale; the
// self-tests shrink it, and pins apply only when pinned is set.
type scale struct {
	simPeers    float64
	simDuration time.Duration
	input       inputSpec // Seed is set per run
	pinned      bool
}

var fullScale = scale{
	simPeers:    10000,
	simDuration: time.Hour,
	input:       inputSpec{Duration: 36 * time.Hour, Mean: 400, Extra: 10, Crowd: true},
	pinned:      true,
}

// setupReps is how many times each pass constructs the system under
// test; setup_s is the median over every construction of the run, so
// its samples span the whole measurement window.
const setupReps = 10

// cacheDir holds the generated input traces, relative to the checkout.
const cacheDir = ".bench_build/cache"

type opts struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	cacheDir string
	scale    scale
}

// minPasses: a traced run alternates untraced and traced passes, so it
// needs two to report the tracing overhead.
func (o opts) minPasses() int {
	if o.traced {
		return 2
	}
	return 1
}

func (o opts) inputSpec() inputSpec {
	s := o.scale.input
	s.Seed = o.seed
	return s
}

// inputPin is the pinned fingerprint of the run's input, if any.
func (o opts) inputPin() string {
	if o.scale.pinned && o.seed == inputPinSeed {
		return inputPinFP
	}
	return ""
}

// outcome is what a workload measured. Operations are counted in
// attempted; failed counts those whose output did not check out.
type outcome struct {
	attempted, failed int
	errs              []string
	e2e               map[string]float64
	samples           map[string][]float64 // per-layer, one per traced pass
}

func newOutcome() *outcome {
	return &outcome{e2e: make(map[string]float64), samples: make(map[string][]float64)}
}

// fail records one failed operation.
func (o *outcome) fail(format string, args ...any) { o.failN(1, format, args...) }

func (o *outcome) failN(n int, format string, args ...any) {
	o.failed += n
	if len(o.errs) < 20 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// add records one traced pass's value of a per-layer metric; the run
// reports each metric's median.
func (o *outcome) add(name string, v float64) { o.samples[name] = append(o.samples[name], v) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type header struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Env      env     `json:"env"`
}

type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
}

func currentEnv() env {
	return env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
	}
}

// cpuModel reads the first model name from /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

var runners = map[string]func(opts) (*outcome, error){
	wlSim:     runSim,
	wlAnalyze: runAnalyze,
	wlIngest:  runIngest,
}

// defaultSeed is each workload's pinned seed.
var defaultSeed = map[string]int64{wlSim: simPinSeed, wlAnalyze: inputPinSeed, wlIngest: inputPinSeed}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl      = fs.String("workload", "", "workload: sim-10k, analyze-36h or ingest-live")
		seed    = fs.Int64("seed", 0, "workload seed (0: the workload's pinned seed)")
		seconds = fs.Float64("seconds", 10, "measurement window in seconds")
		traceOn = fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
		compare = fs.Bool("compare", false, "compare two result files given as arguments")
		list    = fs.Bool("list", false, "print every metric with its unit and the end-to-end metric it moves")
		prepare = fs.Bool("prepare", false, "only generate and verify the workload's cached input, printing nothing")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seed == 0 {
		*seed = defaultSeed[*wl]
	}
	o := opts{workload: *wl, seed: *seed, seconds: *seconds, traced: *traceOn == 1, cacheDir: cacheDir, scale: fullScale}
	switch {
	case *prepare:
		// Generating the input in a process of its own keeps the
		// simulator's heap out of the measuring process.
		if *wl == wlAnalyze || *wl == wlIngest {
			if _, err := loadInput(o.cacheDir, o.inputSpec(), o.inputPin()); err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 1
			}
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare needs two result files")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	case *list:
		listMetrics(stdout)
		return 0
	}
	runner, ok := runners[*wl]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q\n", *wl)
		return 2
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	res, err := measure(o, runner, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	hdr, _ := json.Marshal(header{Workload: *wl, Seed: *seed, Seconds: *seconds, Trace: *traceOn, Env: currentEnv()})
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", hdr, line)
	return 0
}

// measure runs one workload and shapes its outcome into the result: the
// end-to-end metrics for an untraced run, every per-layer metric (0 where
// the layer is not on the workload's path) for a traced one.
func measure(o opts, runner func(opts) (*outcome, error), stderr io.Writer) (*result, error) {
	out, err := runner(o)
	if err != nil {
		return nil, err
	}
	for _, e := range out.errs {
		fmt.Fprintln(stderr, "perfbench: check failed:", e)
	}
	res := &result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue),
	}
	if !o.traced {
		out.e2e["peak_rss_mb"] = peakRSSMB()
		for _, m := range endToEnd {
			v, ok := out.e2e[m.Name]
			if !ok {
				return nil, fmt.Errorf("%s did not measure %s", o.workload, m.Name)
			}
			res.Metrics[m.Name] = metricValue{v, m.Unit}
		}
		return res, nil
	}
	for _, m := range perLayer {
		xs, ok := out.samples[m.Name]
		if !ok && (m.Workload == o.workload || m.Workload == "") {
			return nil, fmt.Errorf("%s did not measure %s", o.workload, m.Name)
		}
		v := 0.0
		if ok {
			v = median(xs)
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	return res, nil
}

func listMetrics(w io.Writer) {
	fmt.Fprintln(w, "end-to-end (every workload, untraced):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-28s %-6s %s is better\n", m.Name, m.Unit, m.Better)
	}
	fmt.Fprintln(w, "per-layer (traced):")
	for _, m := range perLayer {
		wl := m.Workload
		if wl == "" {
			wl = "every workload"
		}
		fmt.Fprintf(w, "  %-36s %-6s %-12s moves %s\n", m.Name, m.Unit, wl, m.Moves)
	}
}
