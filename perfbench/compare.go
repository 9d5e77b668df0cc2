package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// runSet is every run of one workload and trace mode in a result file.
type runSet struct {
	env     env
	runs    int
	failed  int
	metrics map[string][]float64
	units   map[string]string
}

// readResults parses a result file: header lines, each followed by its
// result line, keyed by "workload" or "workload (traced)".
func readResults(path string) (map[string]*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sets := make(map[string]*runSet)
	var cur *runSet
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var probe map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			continue
		}
		if _, ok := probe["workload"]; ok {
			var h header
			if err := json.Unmarshal([]byte(line), &h); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			key := h.Workload
			if h.Trace == 1 {
				key += " (traced)"
			}
			if sets[key] == nil {
				sets[key] = &runSet{env: h.Env, metrics: make(map[string][]float64), units: make(map[string]string)}
			}
			cur = sets[key]
			continue
		}
		if _, ok := probe["metrics"]; !ok || cur == nil {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		cur.runs++
		cur.failed += r.Failed
		for name, mv := range r.Metrics {
			cur.metrics[name] = append(cur.metrics[name], mv.Value)
			cur.units[name] = mv.Unit
		}
		cur = nil
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return sets, nil
}

// compareFiles prints, for every workload both files ran, each metric's
// median in the base file and the new file, and the change as a share
// of the base.
func compareFiles(w io.Writer, basePath, newPath string) error {
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	cur, err := readResults(newPath)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(base))
	for k := range base {
		if cur[k] != nil {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return fmt.Errorf("no workload appears in both %s and %s", basePath, newPath)
	}
	slices.Sort(keys)
	for _, k := range keys {
		b, n := base[k], cur[k]
		fmt.Fprintf(w, "== %s: base %d runs (%d failed ops), new %d runs (%d failed ops)\n", k, b.runs, b.failed, n.runs, n.failed)
		fmt.Fprintf(w, "   base env: %s\n   new env:  %s\n", envLine(b.env), envLine(n.env))
		names := make([]string, 0, len(b.metrics))
		for name := range b.metrics {
			if _, ok := n.metrics[name]; ok {
				names = append(names, name)
			}
		}
		slices.Sort(names)
		fmt.Fprintf(w, "   %-36s %14s %14s %14s %9s\n", "metric", "base", "new", "delta", "delta/base")
		for _, name := range names {
			bv, nv := median(b.metrics[name]), median(n.metrics[name])
			rel := "n/a"
			if bv != 0 {
				rel = fmt.Sprintf("%+.2f%%", 100*(nv-bv)/bv)
			}
			fmt.Fprintf(w, "   %-36s %14.6g %14.6g %14.6g %9s  %s\n", name, bv, nv, nv-bv, rel, b.units[name])
		}
	}
	return nil
}

func envLine(e env) string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d %s %s/%s cpu=%q", e.NProc, e.GOMAXPROCS, e.GoVersion, e.GOOS, e.GOARCH, e.CPU)
}
