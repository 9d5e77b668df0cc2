package core

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/trace"
)

// ReportSource yields reports one at a time; *trace.Reader and
// *trace.JSONLReader both satisfy it.
type ReportSource interface {
	Next() (trace.Report, error)
}

var (
	_ ReportSource = (*trace.Reader)(nil)
	_ ReportSource = (*trace.JSONLReader)(nil)
)

// StreamingHeavyEveryN is the small-world cadence every online analyzer
// defaults to when Config leaves HeavyEveryN unset: the batch default
// scales with the total epoch count, which no single-pass or live
// analyzer can know up front.
const StreamingHeavyEveryN = 6

// AnalyzeStream runs the full pipeline over a report stream in a single
// pass — the mode a 120 GB production trace (the paper's) demands.
// Reports must be roughly time-ordered: anything arriving more than one
// epoch behind the newest epoch seen is dropped and counted in the
// returned drop count.
//
// One goroutine decodes the stream and holds the two newest epochs open.
// When an epoch completes, that goroutine validates its reports and hands
// it to a pool of Config.Workers workers, each with its own EpochScratch.
// Results are committed in the order the epochs completed, not the order
// the workers finish, so the output is identical for any worker count.
// Memory holds the two pending epochs plus one epoch per worker.
//
// Differences from Analyze: HeavyEveryN defaults to StreamingHeavyEveryN
// because the total epoch count is unknown up front, and the Fig. 4
// fallback snapshots are unavailable for the same reason.
func AnalyzeStream(src ReportSource, db *isp.Database, cfg Config, interval time.Duration) (*Results, int, error) {
	if interval <= 0 {
		interval = trace.DefaultReportInterval
	}
	if cfg.HeavyEveryN <= 0 {
		cfg.HeavyEveryN = StreamingHeavyEveryN
	}
	cfg = cfg.sanitize(0)
	snapLabels := SnapshotLabels(interval, cfg.Snapshots)

	// The job channel is unbuffered, so the decoder runs at most one
	// epoch ahead of the busy workers.
	jobs := make(chan *streamEpoch)
	scratches := make([]*EpochScratch, cfg.Workers)
	var wg sync.WaitGroup
	for w := range scratches {
		sc := NewEpochScratch()
		scratches[w] = sc
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ep := range jobs {
				sc.cols.Reset()
				for i := range ep.reports {
					sc.cols.Add(ep.reports[i])
				}
				ep.reports = nil // the columns hold what the kernel needs
				reports, addrs, all := sc.cols.Columns()
				v := NewColumnsEpochView(ep.epoch, epochStartOf(interval, ep.epoch), reports, addrs, all)
				ep.out = AnalyzeEpochMetrics(v, db, cfg, ep.heavy, snapLabels[ep.epoch], sc)
				foldDay(sc.days, v)
			}
		}()
	}

	var flushed []*streamEpoch
	dropped, err := windowEpochs(src, interval, func(epoch int64, reports []trace.Report) error {
		for i := range reports {
			if err := reports[i].Validate(); err != nil {
				return err
			}
		}
		ep := &streamEpoch{epoch: epoch, heavy: len(flushed)%cfg.HeavyEveryN == 0, reports: reports}
		flushed = append(flushed, ep)
		jobs <- ep
		return nil
	})
	close(jobs)
	wg.Wait()
	if err != nil {
		return nil, dropped, err
	}
	if len(flushed) == 0 {
		return nil, dropped, fmt.Errorf("core: stream held no reports")
	}

	outs := make([]*EpochMetrics, len(flushed))
	for i, ep := range flushed {
		outs[i] = ep.out
	}
	days := mergeDays(cfg.Tracer, scratches)
	sp := cfg.Tracer.Start("assemble")
	defer sp.End()
	res, err := assemble(interval, cfg, cfg.Snapshots, outs, days)
	return res, dropped, err
}

// streamEpoch is one completed epoch on its way through AnalyzeStream's
// worker pool. The worker drops reports once it has built the epoch's
// columns, so the ordered list of flushed epochs keeps only the metrics.
type streamEpoch struct {
	epoch   int64
	heavy   bool
	reports []trace.Report // arrival order
	out     *EpochMetrics
}

// windowEpochs reads src to the end, bucketing reports by epoch, and
// passes each epoch's reports (in arrival order) to flush once a report
// two or more epochs newer arrives, or at the end of the stream. Epochs
// are flushed in ascending order. Reports more than one epoch behind the
// newest epoch seen are dropped and counted; the first error from src or
// flush ends the read.
func windowEpochs(src ReportSource, interval time.Duration, flush func(epoch int64, reports []trace.Report) error) (int, error) {
	var (
		pending   = make(map[int64][]trace.Report, 2)
		watermark = int64(-1 << 62)
		dropped   int
	)
	flushBelow := func(limit int64) error {
		var ready []int64
		for e := range pending {
			if e < limit {
				ready = append(ready, e)
			}
		}
		slices.Sort(ready)
		for _, e := range ready {
			reports := pending[e]
			delete(pending, e)
			if err := flush(e, reports); err != nil {
				return err
			}
		}
		return nil
	}

	for {
		rep, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return dropped, fmt.Errorf("core: stream: %w", err)
		}
		epoch := rep.Time.UnixNano() / int64(interval)
		if epoch <= watermark-2 {
			dropped++ // straggler behind the tolerance window
			continue
		}
		pending[epoch] = append(pending[epoch], rep)
		// When a newer epoch appears, everything two or more epochs
		// behind it is complete.
		if epoch > watermark {
			watermark = epoch
			if err := flushBelow(watermark - 1); err != nil {
				return dropped, err
			}
		}
	}
	return dropped, flushBelow(watermark + 1)
}
