// Command magellan-report regenerates every figure of the paper end to
// end: it simulates the two-week UUSee trace window (including the Oct 6
// mid-autumn flash crowd), runs the Magellan analysis pipeline over the
// collected reports, and renders Figs. 1–8. See README.md for the
// scaling discussion.
//
// Example (scaled-down default, a few minutes of wall clock):
//
//	magellan-report -concurrency 600
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/magellan-p2p/magellan/internal/core"
	"github.com/magellan-p2p/magellan/internal/obs/buildinfo"
	"github.com/magellan-p2p/magellan/internal/report"
	"github.com/magellan-p2p/magellan/internal/sim"
	"github.com/magellan-p2p/magellan/internal/trace"
	"github.com/magellan-p2p/magellan/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "magellan-report:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("magellan-report", flag.ContinueOnError)
	var (
		seed        = fs.Int64("seed", 1, "random seed")
		duration    = fs.Duration("duration", 14*24*time.Hour, "simulated span")
		tick        = fs.Duration("tick", time.Minute, "bandwidth integration step")
		concurrency = fs.Float64("concurrency", 600, "target mean simultaneous peers")
		channels    = fs.Int("channels", 48, "extra channels besides CCTV1/CCTV4")
		flashcrowd  = fs.Bool("flashcrowd", true, "inject the Oct 6 9pm mid-autumn flash crowd")
		csvDir      = fs.String("csv", "", "directory for per-figure CSV export (empty: skip)")
		svgDir      = fs.String("svg", "", "directory for per-figure SVG export (empty: skip)")
		extended    = fs.Bool("extended", false, "also run the extension analyses (dynamics, structure, crawl bias, baselines)")
		health      = fs.String("health", "", "render a fleet health summary from a saved metrics-history JSONL file (skips the simulation)")
		verbose     = fs.Bool("v", false, "print hourly progress")
		version     = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println(buildinfo.String("magellan-report"))
		return nil
	}
	if *health != "" {
		return runHealth(os.Stdout, *health)
	}

	store := trace.NewStore(0)
	cfg := sim.Config{
		Seed:            *seed,
		Duration:        *duration,
		Tick:            *tick,
		MeanConcurrency: *concurrency,
		ExtraChannels:   *channels,
		Sink:            store,
	}
	if err := cfg.CheckScale(); err != nil {
		return err
	}
	if *flashcrowd {
		cfg.Crowds = []workload.FlashCrowd{workload.MidAutumnFlashCrowd()}
	}
	if *verbose {
		cfg.Progress = func(st sim.Stats) {
			fmt.Fprintf(os.Stderr, "%s online=%d stable=%d joins=%d reports=%d\n",
				st.Now.Format("2006-01-02 15:04"), st.Online, st.Stable, st.Joins, st.Reports)
		}
	}

	s, err := sim.New(cfg)
	if err != nil {
		return err
	}
	simStart := time.Now()
	if err := s.Run(); err != nil {
		return err
	}
	st := s.Stats()
	fmt.Printf("simulated %v in %v: %d joins, %d reports, final online %d (stable %d)\n",
		*duration, time.Since(simStart).Round(time.Millisecond), st.Joins, st.Reports, st.Online, st.Stable)

	anStart := time.Now()
	res, err := core.Analyze(store, s.Database(), core.Config{Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Printf("analyzed %d epochs in %v\n", res.EpochCount, time.Since(anStart).Round(time.Millisecond))

	if err := report.RenderAll(os.Stdout, res); err != nil {
		return err
	}
	if *extended {
		ext, err := core.AnalyzeExtensions(store, core.ExtensionsConfig{Seed: *seed})
		if err != nil {
			return err
		}
		if err := report.RenderExtensions(os.Stdout, ext, store.Interval()); err != nil {
			return err
		}
	}
	if *csvDir != "" {
		if err := report.WriteCSVs(*csvDir, res); err != nil {
			return err
		}
		fmt.Printf("\nCSV series written to %s\n", *csvDir)
	}
	if *svgDir != "" {
		if err := report.WriteSVGs(*svgDir, res); err != nil {
			return err
		}
		fmt.Printf("SVG figures written to %s\n", *svgDir)
	}
	return nil
}
