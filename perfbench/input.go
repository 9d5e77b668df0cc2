package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"github.com/magellan-p2p/magellan/internal/core"
	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/sim"
	"github.com/magellan-p2p/magellan/internal/trace"
	"github.com/magellan-p2p/magellan/internal/workload"
)

// inputSpec is the simulator configuration of the trace analyze-36h and
// ingest-live consume. At full scale it is the repository's shared bench
// trace (bench_test.go): 400 mean peers for 36 h, 10 extra channels, and
// a 3x flash crowd on CCTV1/CCTV4 twenty hours in.
type inputSpec struct {
	Seed     int64
	Duration time.Duration
	Mean     float64
	Extra    int
	Crowd    bool
}

func (s inputSpec) simConfig(sink trace.Sink) sim.Config {
	cfg := sim.Config{
		Seed:            s.Seed,
		Duration:        s.Duration,
		MeanConcurrency: s.Mean,
		ExtraChannels:   s.Extra,
		Sink:            sink,
	}
	if s.Crowd {
		cfg.Crowds = []workload.FlashCrowd{{
			Start:    workload.TraceStart().Add(20 * time.Hour),
			Ramp:     time.Hour,
			Hold:     90 * time.Minute,
			Decay:    45 * time.Minute,
			Peak:     3,
			Channels: []string{"CCTV1", "CCTV4"},
		}}
	}
	return cfg
}

// key names the cache entry; it spells out every field of the spec, so a
// changed config never reuses another config's trace.
func (s inputSpec) key() string {
	return fmt.Sprintf("trace-seed%d-%s-mean%g-extra%d-crowd%t", s.Seed, s.Duration, s.Mean, s.Extra, s.Crowd)
}

// cacheEntries bounds the input cache: a run with a new seed evicts the
// least recently generated entries beyond this count. Ten seeds run on
// both analyze-36h and ingest-live then generate each input once.
const cacheEntries = 12

// input is one verified cached trace.
type input struct {
	raw   []byte // binary trace stream, as magellan-sim writes it
	db    *isp.Database
	dbRaw []byte
	// fp is the sealed fingerprint of raw, equal to the one recorded when
	// the trace was generated.
	fp [sha256.Size]byte
	// digests maps each epoch to the SHA-256 of core.AppendCanonical over
	// core.BatchEpochMetrics for that epoch: what the live analyzer must
	// reproduce.
	digests map[int64][sha256.Size]byte
}

type inputMeta struct {
	TraceSHA256 string        `json:"trace_sha256"`
	Fingerprint string        `json:"fingerprint"`
	Epochs      []epochDigest `json:"epochs"`
}

type epochDigest struct {
	Epoch  int64  `json:"epoch"`
	Digest string `json:"digest"`
}

func entryPaths(dir string, spec inputSpec) (tracePath, dbPath, metaPath string) {
	base := filepath.Join(dir, spec.key())
	return base + ".trace", base + ".ispdb", base + ".json"
}

// loadInput returns the cached trace for spec, generating it first when
// the cache lacks it, and verifies it before use: the trace bytes must
// hash to the recorded digest and decode to a store whose sealed
// fingerprint is the recorded one (and pinFP, when given).
func loadInput(dir string, spec inputSpec, pinFP string) (*input, error) {
	tracePath, dbPath, metaPath := entryPaths(dir, spec)
	if _, err := os.Stat(metaPath); errors.Is(err, fs.ErrNotExist) {
		if err := generateInput(dir, spec); err != nil {
			return nil, err
		}
	}
	metaRaw, err := os.ReadFile(metaPath)
	if err != nil {
		return nil, err
	}
	var meta inputMeta
	if err := json.Unmarshal(metaRaw, &meta); err != nil {
		return nil, fmt.Errorf("input %s: %w", metaPath, err)
	}
	in := &input{digests: make(map[int64][sha256.Size]byte, len(meta.Epochs))}
	if in.raw, err = os.ReadFile(tracePath); err != nil {
		return nil, err
	}
	if in.dbRaw, err = os.ReadFile(dbPath); err != nil {
		return nil, err
	}
	if got := sha256Hex(in.raw); got != meta.TraceSHA256 {
		return nil, fmt.Errorf("input %s: trace bytes hash %s, recorded %s", tracePath, got, meta.TraceSHA256)
	}
	if in.db, err = isp.ReadDatabase(bytes.NewReader(in.dbRaw)); err != nil {
		return nil, fmt.Errorf("input %s: %w", dbPath, err)
	}
	store, err := trace.LoadStore(bytes.NewReader(in.raw), 0)
	if err != nil {
		return nil, fmt.Errorf("input %s: %w", tracePath, err)
	}
	in.fp = store.Seal().Fingerprint()
	fp := hex.EncodeToString(in.fp[:])
	if fp != meta.Fingerprint {
		return nil, fmt.Errorf("input %s: fingerprint %s, recorded %s", tracePath, fp, meta.Fingerprint)
	}
	if pinFP != "" && fp != pinFP {
		return nil, fmt.Errorf("input %s: fingerprint %s, pinned %s", tracePath, fp, pinFP)
	}
	for _, ed := range meta.Epochs {
		var d [sha256.Size]byte
		if _, err := hex.Decode(d[:], []byte(ed.Digest)); err != nil {
			return nil, fmt.Errorf("input %s: epoch %d digest: %w", metaPath, ed.Epoch, err)
		}
		in.digests[ed.Epoch] = d
	}
	return in, nil
}

// generateInput simulates spec into the cache: the trace, the run's ISP
// database, and a metadata file recording the trace digest, the sealed
// fingerprint, and the per-epoch oracle digests. The metadata is renamed
// into place last, so a killed generation leaves no entry behind.
func generateInput(dir string, spec inputSpec) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var traceBuf bytes.Buffer
	w, err := trace.NewWriter(&traceBuf)
	if err != nil {
		return err
	}
	store := trace.NewStore(0)
	s, err := sim.New(spec.simConfig(trace.Tee{w, store}))
	if err != nil {
		return err
	}
	if err := s.Run(); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	var dbBuf bytes.Buffer
	if _, err := s.Database().WriteTo(&dbBuf); err != nil {
		return err
	}
	fp := store.Seal().Fingerprint()
	epochs, err := core.BatchEpochMetrics(store, s.Database(), core.Config{Seed: spec.Seed})
	if err != nil {
		return err
	}
	meta := inputMeta{TraceSHA256: sha256Hex(traceBuf.Bytes()), Fingerprint: hex.EncodeToString(fp[:])}
	for _, m := range epochs {
		meta.Epochs = append(meta.Epochs, epochDigest{Epoch: m.Epoch, Digest: sha256Hex(core.AppendCanonical(nil, m))})
	}
	metaRaw, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	tracePath, dbPath, metaPath := entryPaths(dir, spec)
	for _, f := range []struct {
		path string
		data []byte
	}{{tracePath, traceBuf.Bytes()}, {dbPath, dbBuf.Bytes()}, {metaPath, metaRaw}} {
		if err := writeAtomic(f.path, f.data); err != nil {
			return err
		}
	}
	return evictInputs(dir)
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// evictInputs removes the oldest cache entries beyond cacheEntries.
func evictInputs(dir string) error {
	metas, err := filepath.Glob(filepath.Join(dir, "trace-*.json"))
	if err != nil {
		return err
	}
	if len(metas) <= cacheEntries {
		return nil
	}
	mtime := make(map[string]time.Time, len(metas))
	for _, m := range metas {
		if st, err := os.Stat(m); err == nil {
			mtime[m] = st.ModTime()
		}
	}
	slices.SortFunc(metas, func(a, b string) int { return mtime[a].Compare(mtime[b]) })
	for _, m := range metas[:len(metas)-cacheEntries] {
		base := strings.TrimSuffix(m, ".json")
		for _, p := range []string{m, base + ".trace", base + ".ispdb"} {
			if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
		}
	}
	return nil
}
