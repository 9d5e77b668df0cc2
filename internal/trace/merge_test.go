package trace

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// loadSourcesReference is the loop MergeStreams ran before it loaded
// through LoadStore's: NewReader, then Next, Validate and Submit one
// report at a time, into one store per source that has a trace header.
func loadSourcesReference(interval time.Duration, opts MergeOptions, srcs ...io.Reader) ([]*Store, MergeStats, error) {
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
	return shards, stats, nil
}

// mergeStoresReference is MergeStores as it was: every epoch's reports
// of every shard, copied in shard order, stable-sorted by address and
// submitted a second time.
func mergeStoresReference(shards ...*Store) *Store {
	out := NewStore(shards[0].Interval())
	var epochs []int64
	for _, sh := range shards {
		epochs = append(epochs, sh.Epochs()...)
	}
	slices.Sort(epochs)
	for _, e := range slices.Compact(epochs) {
		var buf []Report
		for _, sh := range shards {
			buf = append(buf, sh.Snapshot(e).Reports...)
		}
		slices.SortStableFunc(buf, func(a, b Report) int { return cmp.Compare(a.Addr, b.Addr) })
		for _, r := range buf {
			if err := out.Submit(r); err != nil {
				panic(err) // every report was validated on its way into a shard
			}
		}
	}
	return out
}

// TestMergeMatchesReference: MergeStreams, which loads every source into
// one store through LoadStore's loop, and MergeStores, which dumps every
// shard into one store in shard order, seal to the store the serial
// per-source loop and the address-sorted merge give, with the same
// report count, epochs, statistics and, in strict mode, error. Each
// merged epoch lists its reports in shard order, then arrival order.
// The sources are split by ShardOf and also at random, so that one
// address reports from several sources and more than once per epoch;
// each fault of TestLoadStoreFirstError and two non-trace sources are
// placed in them.
func TestMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var reports []Report
	for e := 0; e < 12; e++ {
		reports = append(reports, epochFixture(rng, 40+rng.Intn(80), _t0.Add(time.Duration(e)*DefaultReportInterval))...)
	}
	rng.Shuffle(len(reports), func(i, j int) { reports[i], reports[j] = reports[j], reports[i] })
	split := func(n int, owner func(Report) int) [][]byte {
		parts := make([][]Report, n)
		for _, r := range reports {
			i := owner(r)
			parts[i] = append(parts[i], r)
		}
		srcs := make([][]byte, n)
		for i := range parts {
			srcs[i] = encodeStream(t, parts[i]...)
		}
		return srcs
	}
	cases := map[string][][]byte{}
	for _, n := range []int{1, 2, 3, 7} {
		cases[fmt.Sprintf("by_shard_%d", n)] = split(n, func(r Report) int { return ShardOf(r.Addr, n) })
		cases[fmt.Sprintf("spread_%d", n)] = split(n, func(Report) int { return rng.Intn(n) })
	}
	spread := cases["spread_3"]
	cases["no_sources"] = nil
	cases["bad_magic"] = [][]byte{spread[0], []byte("not a trace file"), spread[1]}
	cases["torn_header"] = [][]byte{spread[0], spread[1], _magic[:3], spread[2]}
	// Each faulty stream goes in at the next position along, in name
	// order, so the cases do not depend on map order.
	places, faults := faultyStreams(t)
	var fnames, pnames []string
	for fname := range faults {
		fnames = append(fnames, fname)
	}
	for pname := range places {
		pnames = append(pnames, pname)
	}
	slices.Sort(fnames)
	slices.Sort(pnames)
	k := 0
	for _, fname := range fnames {
		for _, pname := range pnames {
			srcs := slices.Clone(spread)
			cases[fname+"_"+pname] = slices.Insert(srcs, k%(len(srcs)+1), faults[fname](places[pname]))
			k++
		}
	}

	readers := func(srcs [][]byte) []io.Reader {
		out := make([]io.Reader, len(srcs))
		for i, src := range srcs {
			out[i] = bytes.NewReader(src)
		}
		return out
	}
	for name, srcs := range cases {
		for _, opts := range []MergeOptions{{}, {Tolerant: true}} {
			label := fmt.Sprintf("%s tolerant=%v", name, opts.Tolerant)
			shards, wantStats, wantErr := loadSourcesReference(DefaultReportInterval, opts, readers(srcs)...)
			got, stats, err := MergeStreams(DefaultReportInterval, opts, readers(srcs)...)
			if stats != wantStats {
				t.Errorf("%s: stats %+v, the reference's %+v", label, stats, wantStats)
			}
			if wantErr != nil {
				if got != nil || err == nil || err.Error() != wantErr.Error() {
					t.Errorf("%s: MergeStreams = %v, %v; the reference returns %v", label, got, err, wantErr)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s: MergeStreams: %v", label, err)
				continue
			}
			want := NewStore(DefaultReportInterval)
			if len(shards) > 0 {
				want = mergeStoresReference(shards...)
				merged, err := MergeStores(shards...)
				if err != nil {
					t.Fatalf("%s: MergeStores: %v", label, err)
				}
				checkMerged(t, label+" MergeStores", merged, want, shards)
			}
			checkMerged(t, label+" MergeStreams", got, want, shards)
		}
	}
}

// checkMerged compares a merged store with the reference merge's and
// pins its order: each epoch holds the shards' reports of that epoch,
// shard after shard, each shard's in arrival order.
func checkMerged(t *testing.T, label string, got, want *Store, shards []*Store) {
	t.Helper()
	if got.Len() != want.Len() || !slices.Equal(got.Epochs(), want.Epochs()) {
		t.Errorf("%s: %d reports in epochs %v; the reference has %d in %v",
			label, got.Len(), got.Epochs(), want.Len(), want.Epochs())
		return
	}
	if got.Seal().Fingerprint() != want.Seal().Fingerprint() {
		t.Errorf("%s: sealed fingerprint differs from the reference's", label)
	}
	for _, e := range got.Epochs() {
		var order []Report
		for _, sh := range shards {
			order = append(order, sh.Snapshot(e).Reports...)
		}
		if !slices.EqualFunc(got.Snapshot(e).Reports, order, sameReport) {
			t.Errorf("%s: epoch %d is not in shard order, then arrival order", label, e)
			return
		}
	}
}
