package core

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/trace"
)

// kernel is the per-epoch kernel with its policy resolved: the sanitized
// config, the ISP database, the epoch width, and each epoch's Fig. 4
// snapshot label. Analyze resolves it for the epoch list it sees; every
// other driver gets it from onlineKernel.
type kernel struct {
	interval time.Duration
	db       *isp.Database
	cfg      Config
	labels   map[int64]string
}

// onlineKernel resolves cfg under the online policy, the one for drivers
// that cannot see the whole epoch list up front: the streaming cadence
// (sanitize(0)) and the configured snapshot instants only, with no
// fallback. AnalyzeStream, the live analyzer and BatchEpochMetrics, the
// live analyzer's oracle, all use it, so their epochs reconcile.
func onlineKernel(interval time.Duration, db *isp.Database, cfg Config) *kernel {
	cfg = cfg.sanitize(0)
	return &kernel{interval, db, cfg, snapshotLabels(interval, cfg.Snapshots)}
}

// columnsView opens a view over the columns an EpochColumns has built:
// the sealed index's own layout, which is what keeps the stream's and the
// live analyzer's epochs byte-identical to the batch ones. The view
// aliases the builder's buffers.
func columnsView(interval time.Duration, epoch int64, cols *trace.EpochColumns) EpochView {
	reports, addrs, all := cols.Columns()
	return EpochView{Epoch: epoch, Start: trace.EpochStart(epoch, interval), reports: reports, addrs: addrs, all: all}
}

// pool is the one ordered kernel pool, behind Analyze, BatchEpochMetrics
// and AnalyzeStream: Config.Workers workers, each with its own scratch,
// run the kernel over epochs in the order they are sent. The send
// position fixes an epoch's heavy cadence and its output slot, so the
// results are identical for any worker count. The job channel is
// unbuffered, so the sender runs at most one epoch ahead of the busy
// workers.
//
// A worker hands a stream job's payload buffer back on spent, emptied,
// once it has decoded the epoch into its columns, and the sender
// collects a later epoch's payloads in it. spent has room for every
// buffer the stream holds at once: one per worker and the two open
// epochs'. A stream job that meets a fault runs no kernel and sets
// failed.
type pool struct {
	jobs      chan *poolJob
	spent     chan epochFrames
	failed    atomic.Bool
	sent      []*poolJob
	scratches []*epochScratch
	wg        sync.WaitGroup
}

// poolJob is one epoch on its way through the pool: an epoch of a sealed
// index, or a stream epoch's undecoded payloads, with where the stream
// closed it (see streamFault) and the fault its worker met, if any.
type poolJob struct {
	epoch    int64
	pos      int
	ix       *trace.Index
	frames   *epochFrames
	closedAt int
	dropped  int
	fault    *streamFault
	out      *EpochMetrics
}

func startPool(k *kernel, foldDays bool) *pool {
	p := &pool{
		jobs:      make(chan *poolJob),
		spent:     make(chan epochFrames, k.cfg.Workers+2),
		scratches: make([]*epochScratch, k.cfg.Workers),
	}
	for w := range p.scratches {
		sc := newEpochScratch()
		p.scratches[w] = sc
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for j := range p.jobs {
				var v EpochView
				if j.ix != nil {
					v = NewIndexedEpochView(j.ix, j.epoch)
				} else {
					j.fault = sc.decodeEpoch(j)
					select {
					case p.spent <- epochFrames{j.frames.data[:0], j.frames.frames[:0]}:
					default:
					}
					j.frames = nil
					if j.fault != nil {
						p.failed.Store(true)
						continue
					}
					v = columnsView(k.interval, j.epoch, sc.cols)
				}
				j.out = k.run(v, j.pos, sc)
				// Fold this epoch's addresses into the worker's shard of
				// the day-distinct sets (Fig. 1B), for a driver that
				// merges them.
				if foldDays {
					sc.foldDay(v)
				}
			}
		}()
	}
	return p
}

// send queues the next epoch, blocking until a worker takes it.
func (p *pool) send(j *poolJob) {
	j.pos = len(p.sent)
	p.sent = append(p.sent, j)
	p.jobs <- j
}

// wait stops the pool once every sent epoch is done and returns their
// metrics in send order.
func (p *pool) wait() []*EpochMetrics {
	close(p.jobs)
	p.wg.Wait()
	outs := make([]*EpochMetrics, len(p.sent))
	for i, j := range p.sent {
		outs[i] = j.out
	}
	return outs
}

// runSealed runs every epoch of a sealed index through the pool in
// ascending order: the sealed-index driver. With foldDays the returned
// scratches hold the Fig. 1B day sets for mergeDays.
func runSealed(ix *trace.Index, k *kernel, foldDays bool) ([]*EpochMetrics, []*epochScratch) {
	p := startPool(k, foldDays)
	for _, e := range ix.Epochs() {
		p.send(&poolJob{epoch: e, ix: ix})
	}
	return p.wait(), p.scratches
}

// EpochRunner runs the kernel for an online analyzer that finalizes its
// epochs synchronously, one at a time in close order, under the online
// policy (the streaming cadence, configured snapshots only). It is how the
// live analyzer finalizes, and why its epochs reconcile with
// BatchEpochMetrics. Not safe for concurrent use.
type EpochRunner struct {
	k   *kernel
	sc  *epochScratch
	pos int
}

// NewEpochRunner resolves cfg under the online policy.
func NewEpochRunner(interval time.Duration, db *isp.Database, cfg Config) *EpochRunner {
	return &EpochRunner{k: onlineKernel(interval, db, cfg), sc: newEpochScratch()}
}

// Run computes the metrics of the next epoch to close from the reports
// cols has been fed since its last Reset.
func (r *EpochRunner) Run(epoch int64, cols *trace.EpochColumns) *EpochMetrics {
	m := r.k.run(columnsView(r.k.interval, epoch, cols), r.pos, r.sc)
	r.pos++
	return m
}
