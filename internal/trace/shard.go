package trace

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
)

// Sharded ingest. The paper's measurement plane ran a fleet of trace
// servers, not one; this file is the partitioning and merge discipline
// that lets this reproduction do the same without giving up a byte of
// determinism. Reports are partitioned by reporting peer address with a
// fixed hash (ShardOf), so every report of one peer always lands on the
// same shard regardless of fleet size, and per-peer arrival order is
// preserved shard-locally. MergeStores/MergeFiles fold per-shard
// stores/files back into one canonical store whose sealed index — and
// therefore every analysis output bit — is identical to a single-server
// run, for any shard count.

// shardHash is the fixed partitioning hash: FNV-1a over the address's
// four big-endian bytes. It is part of the ingest tier's wire contract —
// changing it re-partitions every deployed fleet — so it must never
// depend on process state, map order, or the wall clock.
func shardHash(a uint32) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	h = (h ^ (a >> 24)) * prime32
	h = (h ^ (a >> 16 & 0xff)) * prime32
	h = (h ^ (a >> 8 & 0xff)) * prime32
	h = (h ^ (a & 0xff)) * prime32
	return h
}

// ShardOf maps a reporting peer address to its owning shard in a fleet
// of the given size. The map is total and stable: the same address
// always yields the same shard for a given fleet size, with no entropy,
// no clock, and no iteration order involved. Fleet sizes ≤ 1 collapse
// to shard 0.
func ShardOf(addr isp.Addr, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(shardHash(uint32(addr)) % uint32(shards))
}

// Balancer fans reports out to a fleet of per-shard sinks by owning
// shard — the in-process stand-in for client-side routing (deployed
// UUSee clients stuck to the collection server their address hashed
// to). It is safe for concurrent use when the underlying sinks are.
type Balancer struct {
	sinks []Sink
	sent  []atomic.Uint64
}

var _ Sink = (*Balancer)(nil)

// NewBalancer builds a balancer over the given per-shard sinks, in
// shard order. It panics on an empty fleet: a balancer with nowhere to
// route is a construction bug, not a runtime condition.
func NewBalancer(sinks ...Sink) *Balancer {
	if len(sinks) == 0 {
		panic("trace: balancer over zero shards")
	}
	return &Balancer{sinks: sinks, sent: make([]atomic.Uint64, len(sinks))}
}

// Shards returns the fleet size.
func (b *Balancer) Shards() int { return len(b.sinks) }

// Submit implements Sink: the report goes to its owning shard.
func (b *Balancer) Submit(r Report) error {
	i := ShardOf(r.Addr, len(b.sinks))
	if err := b.sinks[i].Submit(r); err != nil {
		return err
	}
	b.sent[i].Add(1)
	return nil
}

// Sent returns the number of reports each shard's sink accepted, in
// shard order.
func (b *Balancer) Sent() []uint64 {
	out := make([]uint64, len(b.sent))
	for i := range b.sent {
		out[i] = b.sent[i].Load()
	}
	return out
}

// ShardedClient routes reports to a live fleet of trace servers over
// UDP: a Balancer over one Client per shard. Like Client, it is not
// safe for concurrent use; give each sending goroutine its own.
type ShardedClient struct {
	*Balancer
	clients []*Client
}

// DialSharded connects one client per shard address, in shard order.
func DialSharded(addrs ...string) (*ShardedClient, error) {
	if len(addrs) == 0 {
		return nil, errors.New("trace: sharded client needs at least one address")
	}
	c := &ShardedClient{}
	sinks := make([]Sink, len(addrs))
	for i, addr := range addrs {
		cl, err := Dial(addr)
		if err != nil {
			c.Close() //magellan:allow erridle — best-effort cleanup; the dial error wins
			return nil, err
		}
		c.clients = append(c.clients, cl)
		sinks[i] = cl
	}
	c.Balancer = NewBalancer(sinks...)
	return c, nil
}

// Close releases every shard socket; the first error wins but all are
// closed.
func (c *ShardedClient) Close() error {
	var firstErr error
	for _, cl := range c.clients {
		if err := cl.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// MergeStores folds per-shard stores into one canonical store. Within
// each epoch the merged order is (address ascending, then per-address
// arrival order) — a stable sort over the shard-order concatenation.
// Because the partitioner owns each address wholly on one shard, the
// per-address subsequence is exactly the single-server arrival
// subsequence, so the merged store's sealed index (latest-by-peer
// dedup, then address sort) is byte-identical to a single-server run's
// — and to any other shard count's merge. That is the determinism
// argument the golden-equivalence suite pins.
func MergeStores(shards ...*Store) (*Store, error) {
	if len(shards) == 0 {
		return nil, errors.New("trace: merge of zero shards")
	}
	interval := shards[0].Interval()
	for i, sh := range shards {
		if sh.Interval() != interval {
			return nil, fmt.Errorf("trace: merge interval mismatch: shard 0 has %v, shard %d has %v",
				interval, i, sh.Interval())
		}
	}
	out := NewStore(interval)

	seen := make(map[int64]struct{})
	var epochs []int64
	for _, sh := range shards {
		for _, e := range sh.Epochs() {
			if _, dup := seen[e]; !dup {
				seen[e] = struct{}{}
				epochs = append(epochs, e)
			}
		}
	}
	slices.Sort(epochs)

	byAddr := func(a, b Report) int { return cmp.Compare(a.Addr, b.Addr) }
	var buf []Report
	for _, e := range epochs {
		buf = buf[:0]
		for _, sh := range shards {
			buf = append(buf, sh.Snapshot(e).Reports...)
		}
		slices.SortStableFunc(buf, byAddr)
		for i := range buf {
			if err := out.Submit(buf[i]); err != nil {
				return nil, fmt.Errorf("trace: merge epoch %d: %w", e, err)
			}
		}
	}
	return out, nil
}

// MergeOptions tunes MergeStreams/MergeFiles.
type MergeOptions struct {
	// Tolerant makes the merge survive damaged shard inputs instead of
	// failing: a source that is not a binary trace at all is skipped
	// (counted), a torn tail ends that source at its last intact record
	// (counted), and a decoded record failing validation is dropped
	// (counted). Compaction of files recovered from crashed or lossy
	// shard servers wants this; strict mode (the default) treats every
	// anomaly as an error.
	Tolerant bool
}

// MergeStats accounts for what a tolerant merge had to survive.
type MergeStats struct {
	// Sources is the number of shard inputs offered.
	Sources int
	// Records is the number of reports merged into the store.
	Records uint64
	// SkippedSources counts inputs that were not binary traces (bad
	// magic or unsupported version) and were skipped whole.
	SkippedSources int
	// TornSources counts inputs that ended inside a record; their intact
	// prefix was merged.
	TornSources int
	// InvalidRecords counts structurally decodable records that failed
	// validation and were dropped.
	InvalidRecords uint64
}

// MergeStreams reads one binary trace stream per shard (in shard order)
// and merges them into one canonical store; see MergeStores for the
// determinism argument and MergeOptions for fault tolerance.
func MergeStreams(interval time.Duration, opts MergeOptions, srcs ...io.Reader) (*Store, MergeStats, error) {
	stats := MergeStats{Sources: len(srcs)}
	shards := make([]*Store, 0, len(srcs))
	for i, src := range srcs {
		sh := NewStore(interval)
		rd, err := NewReader(src)
		if err != nil {
			if !opts.Tolerant {
				return nil, stats, fmt.Errorf("trace: merge source %d: %w", i, err)
			}
			stats.SkippedSources++
			continue
		}
		for {
			rep, err := rd.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				// A mid-stream decode failure is a torn tail (crash) or
				// corruption; either way the records before it are good
				// and the ones after it are unreachable.
				if !opts.Tolerant {
					return nil, stats, fmt.Errorf("trace: merge source %d: %w", i, err)
				}
				stats.TornSources++
				break
			}
			if err := rep.Validate(); err != nil {
				if !opts.Tolerant {
					return nil, stats, fmt.Errorf("trace: merge source %d: %w", i, err)
				}
				stats.InvalidRecords++
				continue
			}
			if err := sh.Submit(rep); err != nil {
				return nil, stats, fmt.Errorf("trace: merge source %d: %w", i, err)
			}
			stats.Records++
		}
		shards = append(shards, sh)
	}
	if len(shards) == 0 {
		// All sources skipped (or none offered): the merge of nothing is
		// the empty store, not an error — a fleet whose shards all
		// crashed pre-header still compacts to a valid (empty) trace.
		return NewStore(interval), stats, nil
	}
	out, err := MergeStores(shards...)
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// MergeFiles is MergeStreams over per-shard trace files, in shard
// order — the compaction entry point for a fleet's rotated output.
func MergeFiles(paths []string, interval time.Duration, opts MergeOptions) (*Store, MergeStats, error) {
	srcs := make([]io.Reader, 0, len(paths))
	files := make([]*os.File, 0, len(paths))
	defer func() {
		for _, f := range files {
			f.Close() //magellan:allow erridle — read-only descriptors; nothing can be lost
		}
	}()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, MergeStats{Sources: len(paths)}, err
		}
		files = append(files, f)
		srcs = append(srcs, f)
	}
	return MergeStreams(interval, opts, srcs...)
}

// Fingerprint returns a SHA-256 over the sealed store's canonical
// encoding: epochs ascending, each epoch's latest-by-peer reports in
// address order, each report in the binary wire encoding. Two stores
// fingerprint equal iff every bit the analyzers can observe is equal —
// the pinnable identity the sharded-ingest equivalence tests and the CI
// smoke compare.
func (ix *Index) Fingerprint() [sha256.Size]byte {
	h := sha256.New()
	var scratch [2 * binary.MaxVarintLen64]byte
	n := binary.PutVarint(scratch[:], int64(ix.interval))
	n += binary.PutUvarint(scratch[n:], uint64(len(ix.epochs)))
	h.Write(scratch[:n])

	buf := make([]byte, 0, 1024)
	for i, e := range ix.epochs {
		reports := ix.cols[i].reports
		n = binary.PutVarint(scratch[:], e)
		n += binary.PutUvarint(scratch[n:], uint64(len(reports)))
		h.Write(scratch[:n])
		for k := range reports {
			buf = AppendReport(buf[:0], &reports[k])
			n = binary.PutUvarint(scratch[:], uint64(len(buf)))
			h.Write(scratch[:n])
			h.Write(buf)
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
