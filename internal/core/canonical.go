package core

import (
	"fmt"
	"slices"
	"strconv"

	"github.com/magellan-p2p/magellan/internal/graph"
	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/metrics"
	"github.com/magellan-p2p/magellan/internal/trace"
)

// This file defines the per-epoch reconciliation contract between the
// batch pipeline and the streaming/live analyzers: a canonical byte
// encoding of EpochMetrics (every field in declaration order, map keys
// in sorted/enum order, floats in exact hexadecimal — two encodings are
// equal iff every output bit is equal) and the batch oracle that
// produces the reference sequence from a sealed store.

// AppendCanonical appends the canonical encoding of one epoch's metrics
// to b and returns the extended slice. NaN and ±Inf render as their
// strconv spellings, which are stable; map-keyed fields are emitted in
// sorted (channels) or enum (ISPs) order so map layout cannot leak into
// the encoding.
func AppendCanonical(b []byte, m *EpochMetrics) []byte {
	f := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

	b = fmt.Appendf(b, "epoch %d %d\n", m.Epoch, m.Start.UnixNano())
	b = fmt.Appendf(b, "pop %d %d %d\n", m.Total, m.Stable, m.Unknown)
	for _, p := range isp.All() {
		b = fmt.Appendf(b, "isp %d %d\n", p, m.ISPCounts[p])
	}
	chans := make([]string, 0, len(m.Quality))
	for ch := range m.Quality {
		chans = append(chans, ch)
	}
	slices.Sort(chans)
	for _, ch := range chans {
		sv := m.Quality[ch]
		b = fmt.Appendf(b, "quality %q %d %d\n", ch, sv[0], sv[1])
	}
	b = fmt.Appendf(b, "deg %s %s %s\n", f(m.DegPartners), f(m.DegIn), f(m.DegOut))
	b = fmt.Appendf(b, "intra %s %s\n", f(m.IntraIn), f(m.IntraOut))
	b = fmt.Appendf(b, "heavy %t\n", m.Heavy)
	if m.Heavy {
		b = fmt.Appendf(b, "sw %s %s %s %s\n", f(m.C), f(m.L), f(m.CRand), f(m.LRand))
		b = fmt.Appendf(b, "sw.isp %t %s %s %s %s\n", m.ISPGraphOK,
			f(m.CISP), f(m.LISP), f(m.CRandISP), f(m.LRandISP))
	}
	b = fmt.Appendf(b, "recip %s %s %s %s\n", f(m.RawR), f(m.RhoAll), f(m.RhoIntra), f(m.RhoInter))
	if m.Snapshot == nil {
		b = append(b, "snapshot nil\n"...)
		return b
	}
	snap := m.Snapshot
	b = fmt.Appendf(b, "snapshot %q %d\n", snap.Label, snap.Time.UnixNano())
	hist := func(b []byte, name string, h *metrics.Histogram) []byte {
		b = fmt.Appendf(b, "%s n=%d\n", name, h.N())
		for _, bin := range h.PDF() {
			b = fmt.Appendf(b, " %d %s\n", bin.Value, f(bin.Frac))
		}
		return b
	}
	fit := func(b []byte, name string, pf graph.PowerLawFit) []byte {
		return fmt.Appendf(b, "%s %s %d %s %d\n", name, f(pf.Alpha), pf.Xmin, f(pf.KS), pf.TailN)
	}
	b = hist(b, "partners", snap.Partners)
	b = hist(b, "in", snap.In)
	b = hist(b, "out", snap.Out)
	b = fit(b, "partnersFit", snap.PartnersFit)
	b = fit(b, "inFit", snap.InFit)
	b = fit(b, "outFit", snap.OutFit)
	return b
}

// BatchEpochMetrics is the reconciliation oracle for the live analyzer:
// one EpochMetrics per non-empty epoch of a sealed store, ascending, from
// the sealed-index driver under the online policy (see onlineKernel) —
// the streaming cadence by position on the sorted epoch list, and the
// configured snapshot instants only. Same kernel, same columns: a live
// analyzer that saw the same reports produces byte-identical
// AppendCanonical output for every epoch it closed.
func BatchEpochMetrics(store *trace.Store, db *isp.Database, cfg Config) ([]*EpochMetrics, error) {
	ix := store.Seal()
	if ix.NumEpochs() == 0 {
		return nil, fmt.Errorf("core: trace store is empty")
	}
	outs, _ := runSealed(ix, onlineKernel(ix.Interval(), db, cfg))
	return outs, nil
}
