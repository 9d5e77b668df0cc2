package core

import (
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/trace"
)

// ReportSource yields reports one at a time; *trace.Reader satisfies
// it.
type ReportSource interface {
	Next() (trace.Report, error)
}

var _ ReportSource = (*trace.Reader)(nil)

// AnalyzeStream runs the full pipeline over a report stream in a single
// pass — the mode a 120 GB production trace (the paper's) demands.
// Reports must be roughly time-ordered: anything arriving more than one
// epoch behind the newest epoch seen is dropped and counted in the
// returned drop count.
//
// One goroutine decodes the stream into a trace.Closer with one shard and
// lateness 1, which holds the two newest epochs open. As each epoch
// closes, that goroutine validates its reports and sends it to the
// kernel pool, which commits results in close order, so the output is
// identical for any worker count. Memory holds the two open epochs plus
// one epoch per worker. A newly opened epoch collects its reports in a
// slice the workers have handed back, when one is waiting.
//
// Differences from Analyze: the online policy applies (HeavyEveryN
// defaults to the streaming cadence and the Fig. 4 fallback snapshots are
// unavailable), because the total epoch count is unknown up front.
func AnalyzeStream(src ReportSource, db *isp.Database, cfg Config, interval time.Duration) (*Results, int, error) {
	if interval <= 0 {
		interval = trace.DefaultReportInterval
	}
	k := onlineKernel(interval, db, cfg)
	p := startPool(k, true)
	epochs := trace.NewCloser[[]trace.Report](1, 1)
	var invalid error // the first report to fail validation ends the read
	send := func(epoch int64, reports *[]trace.Report) {
		for i := 0; i < len(*reports) && invalid == nil; i++ {
			invalid = (*reports)[i].Validate()
		}
		if invalid == nil {
			p.send(&poolJob{epoch: epoch, reports: *reports})
		}
	}
	read := func() error {
		for invalid == nil {
			rep, err := src.Next()
			if errors.Is(err, io.EOF) {
				epochs.Drain(send)
				break
			}
			if err != nil {
				return fmt.Errorf("core: stream: %w", err)
			}
			if held := epochs.Observe(0, rep.Time.UnixNano()/int64(interval), send); held != nil {
				if *held == nil {
					select {
					case *held = <-p.spent:
					default:
					}
				}
				*held = append(*held, rep)
			}
		}
		return invalid
	}
	err := read()
	outs := p.wait()
	dropped := int(epochs.Stragglers())
	if err != nil {
		return nil, dropped, err
	}
	if len(outs) == 0 {
		return nil, dropped, fmt.Errorf("core: stream held no reports")
	}
	days := mergeDays(k.cfg.Tracer, p.scratches)
	sp := k.cfg.Tracer.Start("assemble")
	defer sp.End()
	res, err := assemble(interval, k.cfg, k.cfg.Snapshots, outs, days)
	return res, dropped, err
}
