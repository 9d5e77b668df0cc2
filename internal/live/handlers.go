package live

import (
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strings"
	"time"

	"github.com/magellan-p2p/magellan/internal/alert"
	"github.com/magellan-p2p/magellan/internal/core"
	"github.com/magellan-p2p/magellan/internal/obs"
	"github.com/magellan-p2p/magellan/internal/tsdb"
)

// fptr maps a possibly-undefined float to its JSON shape: nil for NaN
// (encoding/json refuses NaN outright), the value otherwise.
func fptr(v float64) *float64 {
	if math.IsNaN(v) {
		return nil
	}
	return &v
}

// epochJSON is one closed epoch on /live/epochs. Undefined ratios
// (reciprocity on an epoch with no qualifying edges, ISP splits with
// no resolvable addresses) render as null, not NaN.
type epochJSON struct {
	Epoch       int64              `json:"epoch"`
	Start       string             `json:"start"`
	Reports     int                `json:"reports"`
	Total       int                `json:"total"`
	Stable      int                `json:"stable"`
	Quality     map[string]float64 `json:"quality,omitempty"`
	DegPartners float64            `json:"degPartners"`
	DegIn       float64            `json:"degIn"`
	DegOut      float64            `json:"degOut"`
	IntraIn     *float64           `json:"intraIn"`
	IntraOut    *float64           `json:"intraOut"`
	Heavy       bool               `json:"heavy"`
	Clustering  *float64           `json:"clustering,omitempty"`
	PathLen     *float64           `json:"pathLength,omitempty"`
	ClusterRand *float64           `json:"clusteringRandom,omitempty"`
	PathLenRand *float64           `json:"pathLengthRandom,omitempty"`
	RawRecip    *float64           `json:"rawReciprocity"`
	RhoAll      *float64           `json:"rhoAll"`
	RhoIntra    *float64           `json:"rhoIntra"`
	RhoInter    *float64           `json:"rhoInter"`
	Snapshot    string             `json:"snapshot,omitempty"`
	Digest      string             `json:"digest"`
}

// inflightJSON is one still-open epoch's provisional accounting.
type inflightJSON struct {
	Epoch int64  `json:"epoch"`
	Start string `json:"start"`
	Peers int    `json:"peers"`
	Edges int    `json:"edges"`
}

// epochsPayload is the /live/epochs response shape.
type epochsPayload struct {
	IntervalSeconds   float64        `json:"intervalSeconds"`
	EpochsClosed      int            `json:"epochsClosed"`
	StragglersDropped uint64         `json:"stragglersDropped"`
	Closed            []epochJSON    `json:"closed"`
	InFlight          []inflightJSON `json:"inFlight"`
}

func closedJSON(ce *ClosedEpoch) epochJSON {
	m := ce.Metrics
	out := epochJSON{
		Epoch:       ce.Epoch,
		Start:       ce.Start.UTC().Format(time.RFC3339),
		Reports:     ce.Reports,
		Total:       m.Total,
		Stable:      m.Stable,
		DegPartners: m.DegPartners,
		DegIn:       m.DegIn,
		DegOut:      m.DegOut,
		IntraIn:     fptr(m.IntraIn),
		IntraOut:    fptr(m.IntraOut),
		Heavy:       m.Heavy,
		RawRecip:    fptr(m.RawR),
		RhoAll:      fptr(m.RhoAll),
		RhoIntra:    fptr(m.RhoIntra),
		RhoInter:    fptr(m.RhoInter),
		Digest:      hex.EncodeToString(ce.Digest[:]),
	}
	if len(m.Quality) > 0 {
		out.Quality = make(map[string]float64, len(m.Quality))
		for ch, q := range m.Quality {
			frac := math.NaN()
			if q[1] > 0 {
				frac = float64(q[0]) / float64(q[1])
			}
			if !math.IsNaN(frac) {
				out.Quality[ch] = frac
			}
		}
	}
	if m.Heavy {
		out.Clustering = fptr(m.C)
		out.PathLen = fptr(m.L)
		out.ClusterRand = fptr(m.CRand)
		out.PathLenRand = fptr(m.LRand)
	}
	if m.Snapshot != nil {
		out.Snapshot = m.Snapshot.Label
	}
	return out
}

// payload snapshots the full /live/epochs response under the mutex.
func (a *Analyzer) payload() epochsPayload {
	p := epochsPayload{Closed: []epochJSON{}, InFlight: []inflightJSON{}}
	if a == nil {
		return p
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	p.IntervalSeconds = a.interval.Seconds()
	p.EpochsClosed = len(a.closed)
	p.StragglersDropped = a.epochs.Stragglers()
	for _, ce := range a.closed {
		p.Closed = append(p.Closed, closedJSON(ce))
	}
	for _, fl := range a.inFlightLocked() {
		p.InFlight = append(p.InFlight, inflightJSON{
			Epoch: fl.Epoch,
			Start: fl.Start.UTC().Format(time.RFC3339),
			Peers: fl.Peers,
			Edges: fl.Edges,
		})
	}
	return p
}

// EpochsHandler serves the closed-epoch series plus in-flight
// provisional counts as JSON — the machine-readable face of the live
// plane. Shares the repo-wide guard: 405 on non-GET, Content-Type
// application/json. Safe on a nil analyzer (serves the empty series).
func EpochsHandler(a *Analyzer) http.Handler {
	return obs.Guarded("application/json", func(w http.ResponseWriter, _ *http.Request) {
		obs.WriteJSON(w, a.payload())
	})
}

// --- dashboard ---

// sparkW/sparkH are the sparkline viewBox dimensions.
const (
	sparkW = 360
	sparkH = 64
)

// sparkSeries is one polyline on a dashboard card.
type sparkSeries struct {
	Name   string
	Color  string
	Points string // SVG polyline points, empty when no defined samples
	Last   string // formatted most recent defined value
}

// sparkCard is one figure panel: a title and its overlaid series.
type sparkCard struct {
	Title  string
	Figure string
	Series []sparkSeries
}

// alertRow is one rule on the dashboard's alert banner.
type alertRow struct {
	Name     string
	State    string
	Severity string
	Help     string
	Value    string
}

// dashData is everything the dashboard template renders.
type dashData struct {
	IntervalSeconds float64
	EpochsClosed    int
	Stragglers      uint64
	InFlight        []inflightJSON
	Cards           []sparkCard
	Width           int
	Height          int

	// Alerting plane (empty without an engine): the banner rows.
	AlertsFiring  []alertRow
	AlertsPending []alertRow
	AlertRules    int

	// Metrics-history plane (empty without a store): fleet health cards.
	HistoryCards   []sparkCard
	HistorySamples uint64
}

var sparkColors = []string{"#0b6e99", "#c4541c", "#2a7d2e", "#7b3fa0", "#a3264d", "#5a5a5a"}

// polyline maps a series to SVG polyline points over the card's
// viewBox, normalizing to the series' own [min,max] (a flat series
// draws mid-height). NaN samples break the line rather than plotting.
func polyline(vals []float64) string {
	n := len(vals)
	if n == 0 {
		return ""
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if lo > hi {
		return "" // every sample NaN
	}
	span := hi - lo
	var b strings.Builder
	for i, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		x := float64(sparkW-8)/2 + 4
		if n > 1 {
			x = 4 + float64(i)*float64(sparkW-8)/float64(n-1)
		}
		y := float64(sparkH) / 2
		if span > 0 {
			y = float64(sparkH-8) - (v-lo)/span*float64(sparkH-16) + 4
		}
		fmt.Fprintf(&b, "%.1f,%.1f ", x, y)
	}
	return strings.TrimSpace(b.String())
}

func lastDefined(vals []float64) string {
	for i := len(vals) - 1; i >= 0; i-- {
		if !math.IsNaN(vals[i]) {
			return fmt.Sprintf("%.4g", vals[i])
		}
	}
	return "—"
}

func series(name, color string, vals []float64) sparkSeries {
	return sparkSeries{Name: name, Color: color, Points: polyline(vals), Last: lastDefined(vals)}
}

// cards lays the closed-epoch series out as the paper's Fig. 4–9
// panels: population, quality, degree, locality, small-world pair,
// reciprocity. Heavy-only metrics sample only heavy epochs so sparse
// cadences still draw a connected line.
func cards(closed []*ClosedEpoch) []sparkCard {
	n := len(closed)
	pull := func(f func(m *core.EpochMetrics) float64) []float64 {
		out := make([]float64, n)
		for i, ce := range closed {
			out[i] = f(ce.Metrics)
		}
		return out
	}
	pullHeavy := func(f func(m *core.EpochMetrics) float64) []float64 {
		var out []float64
		for _, ce := range closed {
			if ce.Metrics.Heavy {
				out = append(out, f(ce.Metrics))
			}
		}
		return out
	}

	// Quality: one series per channel, channels sorted for stable render.
	chans := map[string][]float64{}
	for i, ce := range closed {
		for ch, q := range ce.Metrics.Quality {
			col := chans[ch]
			if col == nil {
				col = make([]float64, n)
				for j := range col {
					col[j] = math.NaN()
				}
				chans[ch] = col
			}
			if q[1] > 0 {
				col[i] = float64(q[0]) / float64(q[1])
			}
		}
	}
	chNames := make([]string, 0, len(chans))
	for ch := range chans {
		chNames = append(chNames, ch)
	}
	slices.Sort(chNames)
	qualSeries := make([]sparkSeries, 0, len(chNames))
	for i, ch := range chNames {
		qualSeries = append(qualSeries, series(ch, sparkColors[i%len(sparkColors)], chans[ch]))
	}

	return []sparkCard{
		{Title: "Concurrent peers", Figure: "Fig. 4", Series: []sparkSeries{
			series("total", sparkColors[0], pull(func(m *core.EpochMetrics) float64 { return float64(m.Total) })),
			series("stable", sparkColors[1], pull(func(m *core.EpochMetrics) float64 { return float64(m.Stable) })),
		}},
		{Title: "Streaming quality (served fraction)", Figure: "Fig. 5", Series: qualSeries},
		{Title: "Mean degree", Figure: "Fig. 6", Series: []sparkSeries{
			series("partners", sparkColors[0], pull(func(m *core.EpochMetrics) float64 { return m.DegPartners })),
			series("in", sparkColors[1], pull(func(m *core.EpochMetrics) float64 { return m.DegIn })),
			series("out", sparkColors[2], pull(func(m *core.EpochMetrics) float64 { return m.DegOut })),
		}},
		{Title: "Intra-ISP edge fraction", Figure: "Fig. 6", Series: []sparkSeries{
			series("in", sparkColors[0], pull(func(m *core.EpochMetrics) float64 { return m.IntraIn })),
			series("out", sparkColors[1], pull(func(m *core.EpochMetrics) float64 { return m.IntraOut })),
		}},
		{Title: "Clustering coefficient (heavy epochs)", Figure: "Fig. 7", Series: []sparkSeries{
			series("C", sparkColors[0], pullHeavy(func(m *core.EpochMetrics) float64 { return m.C })),
			series("C random", sparkColors[1], pullHeavy(func(m *core.EpochMetrics) float64 { return m.CRand })),
		}},
		{Title: "Mean path length (heavy epochs)", Figure: "Fig. 7", Series: []sparkSeries{
			series("L", sparkColors[0], pullHeavy(func(m *core.EpochMetrics) float64 { return m.L })),
			series("L random", sparkColors[1], pullHeavy(func(m *core.EpochMetrics) float64 { return m.LRand })),
		}},
		{Title: "Reciprocity", Figure: "Fig. 8–9", Series: []sparkSeries{
			series("raw r", sparkColors[0], pull(func(m *core.EpochMetrics) float64 { return m.RawR })),
			series("ρ all", sparkColors[1], pull(func(m *core.EpochMetrics) float64 { return m.RhoAll })),
			series("ρ intra-ISP", sparkColors[2], pull(func(m *core.EpochMetrics) float64 { return m.RhoIntra })),
			series("ρ inter-ISP", sparkColors[3], pull(func(m *core.EpochMetrics) float64 { return m.RhoInter })),
		}},
	}
}

// historyCardSpecs names the fleet-health series the dashboard charts
// from the metrics history, in render order. Families (sharded fleets)
// draw one polyline per member.
var historyCardSpecs = []struct {
	title  string
	metric string
}{
	{"Reports received (cumulative)", "magellan_ingest_received_total"},
	{"Ingest queue depth", "magellan_ingest_queue_depth"},
	{"Queue drops (cumulative)", "magellan_ingest_queue_drops_total"},
	{"Sink errors (cumulative)", "magellan_ingest_sink_errors_total"},
	{"Live watermark lag (epochs)", "magellan_live_watermark_lag_epochs"},
	{"Process heap bytes", "magellan_process_heap_bytes"},
}

// historyCards renders the retained history of the fleet-health series
// as sparkline cards, reusing the epoch cards' polyline plumbing. A
// metric the store never sampled simply has no card.
func historyCards(db *tsdb.DB) []sparkCard {
	var out []sparkCard
	for _, spec := range historyCardSpecs {
		names := db.Match(spec.metric)
		if len(names) == 0 {
			continue
		}
		ss := make([]sparkSeries, 0, len(names))
		for i, name := range names {
			pts := db.Range(name, math.MinInt64, math.MaxInt64)
			vals := make([]float64, len(pts))
			for j, p := range pts {
				vals[j] = p.V
			}
			// Label a family member by its label block, a plain series
			// by a neutral name.
			label := "value"
			if lb := strings.IndexByte(name, '{'); lb >= 0 {
				label = name[lb:]
			}
			ss = append(ss, series(label, sparkColors[i%len(sparkColors)], vals))
		}
		out = append(out, sparkCard{Title: spec.title, Figure: "history", Series: ss})
	}
	return out
}

// alertRows maps the engine's sorted rule states onto banner rows.
func alertRows(eng *alert.Engine) (firing, pending []alertRow, rules int) {
	for _, st := range eng.Status() {
		rules++
		row := alertRow{
			Name:     st.Rule.Name,
			State:    string(st.State),
			Severity: st.Rule.Severity,
			Help:     st.Rule.Help,
			Value:    fmt.Sprintf("%.4g", st.Value),
		}
		switch st.State {
		case alert.Firing:
			firing = append(firing, row)
		case alert.Pending:
			pending = append(pending, row)
		}
	}
	return firing, pending, rules
}

// DashboardHandler serves /live: a self-contained HTML page (no
// external assets) with one inline-SVG sparkline card per Fig. 4–9
// curve family, an alert banner, and fleet-health history charts,
// refreshed by meta tag. Safe on a nil analyzer, nil history store,
// and nil alert engine (each plane simply renders empty).
func DashboardHandler(a *Analyzer, hist *tsdb.DB, eng *alert.Engine) http.Handler {
	return obs.Guarded("text/html; charset=utf-8", func(w http.ResponseWriter, _ *http.Request) {
		var d dashData
		d.Width, d.Height = sparkW, sparkH
		d.AlertsFiring, d.AlertsPending, d.AlertRules = alertRows(eng)
		d.HistorySamples = hist.Samples()
		d.HistoryCards = historyCards(hist)
		if a != nil {
			a.mu.Lock()
			closed := slices.Clone(a.closed)
			d.IntervalSeconds = a.interval.Seconds()
			d.EpochsClosed = len(a.closed)
			d.Stragglers = a.epochs.Stragglers()
			for _, fl := range a.inFlightLocked() {
				d.InFlight = append(d.InFlight, inflightJSON{
					Epoch: fl.Epoch,
					Start: fl.Start.UTC().Format(time.RFC3339),
					Peers: fl.Peers,
					Edges: fl.Edges,
				})
			}
			a.mu.Unlock()
			d.Cards = cards(closed)
		}
		_ = dashTmpl.Execute(w, d) //magellan:allow erridle — a failed page response means the browser hung up; nothing to do
	})
}
