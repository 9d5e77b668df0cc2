package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered metric in Prometheus text
// format (version 0.0.4). Output is deterministic: families are sorted
// by metric name, each emitted exactly once with a single # HELP and
// # TYPE header.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	fams := make([]*registered, 0, len(r.metrics))
	for _, m := range r.metrics {
		fams = append(fams, m)
	}
	r.mu.RUnlock()
	slices.SortFunc(fams, func(a, b *registered) int {
		return strings.Compare(a.name, b.name)
	})

	b := make([]byte, 0, 1024)
	for _, m := range fams {
		if m.help != "" {
			b = append(b, "# HELP "...)
			b = append(b, m.name...)
			b = append(b, ' ')
			b = appendEscapedHelp(b, m.help)
			b = append(b, '\n')
		}
		b = append(b, "# TYPE "...)
		b = append(b, m.name...)
		b = append(b, ' ')
		b = append(b, m.c.typ()...)
		b = append(b, '\n')
		b = m.c.emit(b, m.name, m.labels)
	}
	_, err := w.Write(b)
	return err
}

// appendEscapedHelp escapes backslash and newline, the two characters
// the text format requires escaping in help strings.
func appendEscapedHelp(b []byte, help string) []byte {
	for i := 0; i < len(help); i++ {
		switch help[i] {
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, help[i])
		}
	}
	return b
}

// Guarded wraps a read-only endpoint in the shared handler discipline:
// GET and HEAD are served with the given Content-Type, anything else
// gets 405 with an Allow header. Every JSON, exposition, and dashboard
// endpoint in the daemons goes through this one helper, so the
// method/header behavior cannot drift between them.
func Guarded(contentType string, serve func(w http.ResponseWriter, req *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", contentType)
		serve(w, req)
	})
}

// WriteJSON encodes v as one JSON document onto a response body. Every
// JSON endpoint in the daemons writes through it, so the one way a
// response write can fail — the client hung up — is handled once.
func WriteJSON(w io.Writer, v any) {
	_ = json.NewEncoder(w).Encode(v) //magellan:allow erridle — a failed response write means the client hung up; nothing to do
}

// Handler returns an http.Handler serving the registry in Prometheus
// text format on GET (and HEAD); other methods get 405.
func Handler(r *Registry) http.Handler {
	return Guarded("text/plain; version=0.0.4; charset=utf-8", func(w http.ResponseWriter, _ *http.Request) {
		_ = r.WritePrometheus(w) //magellan:allow erridle — a failed scrape response means the scraper hung up; nothing to do
	})
}

// JSONHandler returns a guarded handler that renders payload() as one
// JSON object per request: 405 on non-GET, Content-Type
// application/json — the discipline /status and /events share.
func JSONHandler(payload func() any) http.Handler {
	return Guarded("application/json", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, payload())
	})
}

// DefaultEventsTail bounds an /events response when the request does not
// pick its own ?n= limit.
const DefaultEventsTail = 256

// eventsPayload is the /events response shape.
type eventsPayload struct {
	Recorded uint64  `json:"recorded"`
	Dropped  uint64  `json:"dropped"`
	Events   []Event `json:"events"`
}

// EventsHandler serves a JSON tail of the journal: the most recent n
// events (?n=, default DefaultEventsTail, capped at the ring bound by
// construction) plus the recorded/dropped accounting. ?stage= restricts
// the tail to one recording stage (emit, fault, server, store, seal,
// analyze) — the n most recent events *of that stage* — so journal
// inspection at scale doesn't ship the whole ring every poll. Malformed
// n or an unknown stage is a 400, not a silent full tail. A nil journal
// serves the empty tail, so daemons can mount the endpoint
// unconditionally.
func EventsHandler(j *Journal) http.Handler {
	return Guarded("application/json", func(w http.ResponseWriter, req *http.Request) {
		n := DefaultEventsTail
		if s := req.URL.Query().Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				http.Error(w, "bad n parameter", http.StatusBadRequest)
				return
			}
			n = v
		}
		var evs []Event
		if s := req.URL.Query().Get("stage"); s != "" {
			stage, err := ParseStage(s)
			if err != nil {
				http.Error(w, "bad stage parameter", http.StatusBadRequest)
				return
			}
			held := j.Events()
			kept := held[:0]
			for _, ev := range held {
				if ev.Stage == stage {
					kept = append(kept, ev)
				}
			}
			if len(kept) > n {
				kept = kept[len(kept)-n:]
			}
			evs = kept
		} else {
			evs = j.Tail(n)
		}
		if evs == nil {
			evs = []Event{}
		}
		WriteJSON(w, eventsPayload{
			Recorded: j.Recorded(),
			Dropped:  j.Dropped(),
			Events:   evs,
		})
	})
}

// healthzPayload is the /healthz response shape.
type healthzPayload struct {
	Status  string `json:"status"`
	Version string `json:"version"`
}

// HealthzHandler serves a readiness probe: 200 {"status":"ok"} with the
// build version while ready() reports true, 503 {"status":"draining"}
// otherwise (daemon starting up or draining after SIGTERM). CI smokes
// and magellan-loadgen poll it instead of sleeping on fixed delays.
// The method/Content-Type discipline is the shared guard's.
func HealthzHandler(version string, ready func() bool) http.Handler {
	return Guarded("application/json", func(w http.ResponseWriter, _ *http.Request) {
		p := healthzPayload{Status: "ok", Version: version}
		if !ready() {
			p.Status = "draining"
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		WriteJSON(w, p)
	})
}
