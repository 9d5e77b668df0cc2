package tsdb

import (
	"net/http"
	"time"

	"github.com/magellan-p2p/magellan/internal/obs"
)

// historyIndex is the /history response without ?metric=: what the
// store retains.
type historyIndex struct {
	Samples   uint64       `json:"samples"`
	Evicted   uint64       `json:"evicted"`
	Capacity  int          `json:"capacity"`
	SeriesLen int          `json:"seriesCount"`
	Series    []SeriesInfo `json:"series"`
}

// historyRange is the /history response for a range query.
type historyRange struct {
	Metric string  `json:"metric"`
	Points []Point `json:"points"`
}

// historyScalar is the /history response for a rate or delta query.
type historyScalar struct {
	Metric        string   `json:"metric"`
	Query         string   `json:"query"`
	WindowSeconds float64  `json:"windowSeconds"`
	Value         *float64 `json:"value"` // null when the window holds < 2 samples
}

// Handler serves the metrics history as JSON under the repo-wide
// endpoint guard (405 on non-GET, application/json):
//
//	/history                     → retained-series index
//	/history?metric=M            → retained points of series M
//	/history?metric=M&since=15m  → points in the lookback window
//	/history?metric=M&step=30s   → step-aligned (latest-at-or-before)
//	/history?metric=M&query=rate&since=1m  → windowed per-second rate
//	/history?metric=M&query=delta&since=1m → windowed signed difference
//
// M is a full series identity (including any label block); lookback
// windows resolve against the store's injected clock. Malformed
// parameters are a 400. Nil-DB safe: a daemon without -history serves
// the empty index rather than a config-dependent 404.
func Handler(db *DB) http.Handler {
	return obs.Guarded("application/json", func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		metric := q.Get("metric")
		if metric == "" {
			idx := historyIndex{
				Samples:  db.Samples(),
				Evicted:  db.Evicted(),
				Capacity: db.Capacity(),
				Series:   db.Series(),
			}
			if idx.Series == nil {
				idx.Series = []SeriesInfo{}
			}
			idx.SeriesLen = len(idx.Series)
			obs.WriteJSON(w, idx)
			return
		}

		var since time.Duration
		if s := q.Get("since"); s != "" {
			d, err := time.ParseDuration(s)
			if err != nil || d <= 0 {
				http.Error(w, "bad since parameter (want a positive Go duration)", http.StatusBadRequest)
				return
			}
			since = d
		}
		var step time.Duration
		if s := q.Get("step"); s != "" {
			d, err := time.ParseDuration(s)
			if err != nil || d <= 0 {
				http.Error(w, "bad step parameter (want a positive Go duration)", http.StatusBadRequest)
				return
			}
			step = d
		}
		now := db.Now()
		if now == 0 {
			// No injected clock (or disabled store): anchor on the newest
			// retained sample so saved-history servers still answer.
			if infos := db.Series(); len(infos) > 0 {
				for _, si := range infos {
					if si.LastT > now {
						now = si.LastT
					}
				}
			}
		}
		lo := int64(-1 << 62)
		if since > 0 {
			lo = now - int64(since)
		}

		switch q.Get("query") {
		case "", "range":
			pts := db.RangeStep(metric, lo, now, int64(step))
			if pts == nil {
				pts = []Point{}
			}
			obs.WriteJSON(w, historyRange{Metric: metric, Points: pts})
		case "rate", "delta":
			if since <= 0 {
				http.Error(w, "rate/delta queries need since= (the window)", http.StatusBadRequest)
				return
			}
			var v float64
			var ok bool
			if q.Get("query") == "rate" {
				v, ok = db.Rate(metric, now, int64(since))
			} else {
				v, ok = db.Delta(metric, now, int64(since))
			}
			out := historyScalar{Metric: metric, Query: q.Get("query"), WindowSeconds: since.Seconds()}
			if ok {
				out.Value = &v
			}
			obs.WriteJSON(w, out)
		default:
			http.Error(w, "bad query parameter (range|rate|delta)", http.StatusBadRequest)
		}
	})
}
