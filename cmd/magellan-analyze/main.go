// Command magellan-analyze runs the Magellan pipeline over a recorded
// trace and renders every figure of the paper, optionally exporting the
// underlying data as CSV.
//
// Example:
//
//	magellan-analyze -trace uusee.trace -ispdb uusee.ispdb -csv out/
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"github.com/magellan-p2p/magellan/internal/core"
	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/obs"
	"github.com/magellan-p2p/magellan/internal/obs/buildinfo"
	"github.com/magellan-p2p/magellan/internal/report"
	"github.com/magellan-p2p/magellan/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "magellan-analyze:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("magellan-analyze", flag.ContinueOnError)
	var (
		tracePath = fs.String("trace", "uusee.trace", "input trace file(s), comma-separated in shard order; several files merge deterministically into one store")
		ispdbPath = fs.String("ispdb", "uusee.ispdb", "input ISP database file")
		tolerant  = fs.Bool("tolerant", false, "survive damaged shard inputs when merging: skip non-trace files, keep torn tails' intact prefixes, drop invalid records (all counted)")
		fprint    = fs.Bool("fingerprint", false, "print the sealed (merged) store's canonical SHA-256 and exit without analyzing")
		digests   = fs.Bool("epoch-digests", false, "print one per-epoch canonical SHA-256 per line (epoch, digest) and exit: the live plane's reconciliation oracle — diff against the digests on /live/epochs")
		csvDir    = fs.String("csv", "", "directory for per-figure CSV export (empty: skip)")
		svgDir    = fs.String("svg", "", "directory for per-figure SVG export (empty: skip)")
		interval  = fs.Duration("interval", 10*time.Minute, "trace epoch width")
		seed      = fs.Int64("seed", 1, "seed for random baselines and BFS sampling")
		threshold = fs.Uint("threshold", core.DefaultActiveThreshold, "active-partner segment threshold")
		streaming = fs.Bool("stream", false, "single-pass analysis (bounded memory; for traces too large to hold)")
		timings   = fs.Bool("timings", false, "profile pipeline stages and print a per-stage wall/alloc table")
		journalIn = fs.String("journal", "", "lifecycle journal (JSON lines, from magellan-sim -journal-out): extend it with this run's seal and analysis events")
		version   = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println(buildinfo.String("magellan-analyze"))
		return nil
	}

	// core.Config reads a zero threshold as its default (10), and the
	// value is narrowed to 32 bits, so 0 and anything past 2³²−1 would
	// silently analyze at another threshold.
	if *threshold == 0 || *threshold > math.MaxUint32 {
		return fmt.Errorf("-threshold %d is out of range: want 1 to %d segments", *threshold, uint32(math.MaxUint32))
	}
	tracePaths := strings.Split(*tracePath, ",")
	if *streaming {
		if len(tracePaths) > 1 {
			return fmt.Errorf("-stream analyzes a single trace; merge shard files without -stream")
		}
		if *tolerant {
			return fmt.Errorf("-tolerant needs the merging loader; drop -stream")
		}
		if *fprint {
			return fmt.Errorf("-fingerprint needs the sealed index; drop -stream")
		}
		if *digests {
			return fmt.Errorf("-epoch-digests needs the sealed index; drop -stream")
		}
	}
	// loadMerged folds the shard files (or the one file) into a store;
	// the merged store is byte-identical to a single-server run's for any
	// shard count, so -fingerprint comparisons across layouts are exact.
	loadMerged := func() (*trace.Store, error) {
		store, stats, err := trace.MergeFiles(tracePaths, *interval,
			trace.MergeOptions{Tolerant: *tolerant})
		if err != nil {
			return nil, fmt.Errorf("load trace: %w", err)
		}
		if len(tracePaths) > 1 || *tolerant {
			fmt.Fprintf(os.Stderr, "merged %d reports from %d shard file(s)", stats.Records, stats.Sources)
			if stats.SkippedSources+stats.TornSources > 0 || stats.InvalidRecords > 0 {
				fmt.Fprintf(os.Stderr, " (skipped %d, torn %d, invalid records %d)",
					stats.SkippedSources, stats.TornSources, stats.InvalidRecords)
			}
			fmt.Fprintln(os.Stderr)
		}
		return store, nil
	}
	if *fprint {
		store, err := loadMerged()
		if err != nil {
			return err
		}
		fp := store.Seal().Fingerprint()
		fmt.Printf("%x\n", fp)
		return nil
	}

	dbFile, err := os.Open(*ispdbPath)
	if err != nil {
		return err
	}
	defer dbFile.Close()
	db, err := isp.ReadDatabase(dbFile)
	if err != nil {
		return fmt.Errorf("load ISP database: %w", err)
	}

	cfg := core.Config{
		Seed:            *seed,
		ActiveThreshold: uint32(*threshold),
	}
	if *digests {
		store, err := loadMerged()
		if err != nil {
			return err
		}
		// BatchEpochMetrics resolves config the way an online analyzer
		// must (streaming heavy cadence, no snapshot fallback), so with
		// the same seed these digests are exactly what a live plane fed
		// the same reports publishes on /live/epochs.
		outs, err := core.BatchEpochMetrics(store, db, cfg)
		if err != nil {
			return err
		}
		var buf []byte
		for _, m := range outs {
			buf = core.AppendCanonical(buf[:0], m)
			fmt.Printf("%d %x\n", m.Epoch, sha256.Sum256(buf))
		}
		return nil
	}
	var prof *obs.StageProfile
	if *timings {
		prof = obs.NewStageProfile()
		cfg.Tracer = prof
	}
	// Continue a sim-side journal through the analysis planes: replay the
	// recorded events into a fresh ring (with headroom for what this run
	// adds), attach it to the store's seal path and the pipeline, then
	// rewrite the file with the indexed/superseded/consumed events
	// appended. Tick-stamped, so re-running the analysis reproduces the
	// same journal bytes.
	var journal *obs.Journal
	if *journalIn != "" {
		if *streaming {
			return fmt.Errorf("-journal is not supported with -stream (the single-pass path never seals an index)")
		}
		jf, err := os.Open(*journalIn)
		if err != nil {
			return err
		}
		events, err := obs.ReadEventsJSONL(jf)
		jf.Close() //magellan:allow erridle — read-only descriptor; nothing can be lost
		if err != nil {
			return fmt.Errorf("load journal: %w", err)
		}
		journal = obs.NewJournal(2*len(events) + obs.DefaultJournalCapacity)
		for _, ev := range events {
			journal.RecordShard(ev.At, ev.Stage, ev.Verdict, ev.ID, ev.Shard)
		}
		cfg.Journal = journal
	}
	start := time.Now()
	var res *core.Results
	if *streaming {
		traceFile, err := os.Open(tracePaths[0])
		if err != nil {
			return err
		}
		defer traceFile.Close()
		rd, err := trace.NewReader(traceFile)
		if err != nil {
			return fmt.Errorf("open trace: %w", err)
		}
		var dropped int
		res, dropped, err = core.AnalyzeStream(rd, db, cfg, *interval)
		if err != nil {
			return err
		}
		fmt.Printf("stream-analyzed %d epochs in %v (%d stragglers dropped)\n",
			res.EpochCount, time.Since(start).Round(time.Millisecond), dropped)
	} else {
		store, err := loadMerged()
		if err != nil {
			return err
		}
		// Attach before the first Seal so the index build's events land
		// in the journal (the seal result is cached afterwards).
		store.SetJournal(journal)
		res, err = core.Analyze(store, db, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("analyzed %d reports across %d epochs in %v\n",
			store.Len(), res.EpochCount, time.Since(start).Round(time.Millisecond))
	}

	if journal != nil {
		jf, err := os.Create(*journalIn)
		if err != nil {
			return err
		}
		if err := journal.WriteJSONL(jf); err != nil {
			jf.Close() //magellan:allow erridle — best-effort cleanup; the write error wins
			return err
		}
		if err := jf.Close(); err != nil {
			return err
		}
		fmt.Printf("journal extended with seal/analysis events: %s (%d events, %d dropped)\n",
			*journalIn, journal.Len(), journal.Dropped())
	}

	if prof != nil {
		fmt.Println("\npipeline stage timings (wall is per-stage elapsed; alloc is process-wide heap bytes attributed to the stage):")
		if err := prof.WriteTable(os.Stdout); err != nil {
			return err
		}
	}

	if err := report.RenderAll(os.Stdout, res); err != nil {
		return err
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
