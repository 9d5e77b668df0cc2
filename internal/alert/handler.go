package alert

import (
	"net/http"

	"github.com/magellan-p2p/magellan/internal/obs"
)

// alertsPayload is the /alerts response: every rule's state plus the
// retained transition log.
type alertsPayload struct {
	Rules              []RuleStatus `json:"rules"`
	Firing             int          `json:"firing"`
	Pending            int          `json:"pending"`
	Evals              uint64       `json:"evals"`
	Transitions        []Transition `json:"transitions"`
	TransitionsTotal   uint64       `json:"transitionsTotal"`
	DroppedTransitions uint64       `json:"droppedTransitions"`
}

// Handler serves the engine state as JSON under the repo-wide endpoint
// guard (405 on non-GET, application/json). Nil-engine safe: a daemon
// without -alerts serves the empty pack rather than a config-dependent
// 404.
func Handler(e *Engine) http.Handler {
	return obs.Guarded("application/json", func(w http.ResponseWriter, req *http.Request) {
		trans, dropped := e.Transitions()
		firing, pending := e.Counts()
		p := alertsPayload{
			Rules:              e.Status(),
			Firing:             firing,
			Pending:            pending,
			Evals:              e.Evals(),
			Transitions:        trans,
			TransitionsTotal:   e.TransitionsTotal(),
			DroppedTransitions: dropped,
		}
		if p.Rules == nil {
			p.Rules = []RuleStatus{}
		}
		if p.Transitions == nil {
			p.Transitions = []Transition{}
		}
		obs.WriteJSON(w, p)
	})
}

// RegisterMetrics exposes the engine's meta-metrics on reg, so the
// alerting plane is itself observable (and samplable into the history).
// Safe with a nil engine: the gauges read zero.
func RegisterMetrics(reg *obs.Registry, e *Engine) {
	reg.GaugeFunc("magellan_alert_rules", "Alert rules loaded.",
		func() float64 { return float64(e.Rules()) })
	reg.GaugeFunc("magellan_alert_firing", "Alert rules currently firing.",
		func() float64 { f, _ := e.Counts(); return float64(f) })
	reg.GaugeFunc("magellan_alert_pending", "Alert rules currently pending (condition held, dwell not elapsed).",
		func() float64 { _, p := e.Counts(); return float64(p) })
	reg.CounterFunc("magellan_alert_evals_total", "Alert evaluation passes run.",
		func() uint64 { return e.Evals() })
	reg.CounterFunc("magellan_alert_transitions_total", "Alert state transitions recorded.",
		func() uint64 { return e.TransitionsTotal() })
}
