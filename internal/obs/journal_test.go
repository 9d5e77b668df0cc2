package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestJournalDropOldestExact(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Record(int64(i), StageEmit, VerdictEmitted, ReportID{Seq: uint32(i)})
	}
	if got, want := j.Recorded(), uint64(10); got != want {
		t.Errorf("Recorded() = %d, want %d", got, want)
	}
	// Capacity 4, 10 records: exactly 6 overwrites, never one more.
	if got, want := j.Dropped(), uint64(6); got != want {
		t.Errorf("Dropped() = %d, want %d", got, want)
	}
	if got, want := j.Len(), 4; got != want {
		t.Errorf("Len() = %d, want %d", got, want)
	}
	if got, want := j.Cap(), 4; got != want {
		t.Errorf("Cap() = %d, want %d", got, want)
	}
	evs := j.Events()
	if len(evs) != 4 {
		t.Fatalf("Events() returned %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(i + 6); ev.At != want {
			t.Errorf("event %d: At = %d, want %d (oldest-first survivors)", i, ev.At, want)
		}
	}
	if got, want := j.StageCount(StageEmit), uint64(10); got != want {
		t.Errorf("StageCount(emit) = %d, want %d", got, want)
	}
	if got := j.StageCount(StageFault); got != 0 {
		t.Errorf("StageCount(fault) = %d, want 0", got)
	}
}

func TestJournalTail(t *testing.T) {
	j := NewJournal(8)
	for i := 0; i < 5; i++ {
		j.Record(int64(i), StageEmit, VerdictEmitted, ReportID{})
	}
	tail := j.Tail(2)
	if len(tail) != 2 || tail[0].At != 3 || tail[1].At != 4 {
		t.Errorf("Tail(2) = %+v, want the two newest oldest-first", tail)
	}
	if got := j.Tail(100); len(got) != 5 {
		t.Errorf("Tail(100) returned %d events, want all 5", len(got))
	}
	if got := j.Tail(0); len(got) != 0 {
		t.Errorf("Tail(0) returned %d events, want 0", len(got))
	}
}

func TestNilJournalSafe(t *testing.T) {
	var j *Journal
	j.Record(1, StageEmit, VerdictEmitted, ReportID{})
	j.RecordNow(StageEmit, VerdictEmitted, ReportID{})
	if j.Len() != 0 || j.Cap() != 0 || j.Recorded() != 0 || j.Dropped() != 0 {
		t.Error("nil journal reported nonzero accounting")
	}
	if j.Events() != nil || j.Tail(3) != nil {
		t.Error("nil journal returned events")
	}
	if j.StageCount(StageSeal) != 0 {
		t.Error("nil journal reported a stage count")
	}
}

// TestNilJournalZeroAllocs pins the disabled recorder's contract: a nil
// *Journal records with zero heap allocations, mirroring the Nop span
// guarantee. CI runs this alongside the span guard.
func TestNilJournalZeroAllocs(t *testing.T) {
	var j *Journal
	id := ReportID{Addr: 1, Channel: "CCTV1", Epoch: 2, Seq: 3}
	allocs := testing.AllocsPerRun(1000, func() {
		j.Record(7, StageEmit, VerdictEmitted, id)
		j.RecordNow(StageServer, VerdictDelivered, id)
	})
	if allocs != 0 {
		t.Errorf("disabled journal allocated %.1f times per record, want 0", allocs)
	}
}

// TestJournalDeterministicNoClock pins the deterministic constructor's
// contract: RecordNow on a tick-stamped journal must not invent a wall
// timestamp.
func TestJournalDeterministicNoClock(t *testing.T) {
	j := NewJournal(4)
	j.RecordNow(StageEmit, VerdictEmitted, ReportID{})
	if evs := j.Events(); len(evs) != 1 || evs[0].At != 0 {
		t.Errorf("RecordNow on a tick journal produced %+v, want At=0", evs)
	}
}

func TestStageVerdictNamesRoundTrip(t *testing.T) {
	for s := Stage(0); s < numStages; s++ {
		got, err := ParseStage(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStage(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	for v := Verdict(0); v < numVerdicts; v++ {
		got, err := ParseVerdict(v.String())
		if err != nil || got != v {
			t.Errorf("ParseVerdict(%q) = %v, %v; want %v", v.String(), got, err, v)
		}
	}
	if _, err := ParseStage("warp"); err == nil {
		t.Error("ParseStage accepted an unknown stage")
	}
	if _, err := ParseVerdict("vanished"); err == nil {
		t.Error("ParseVerdict accepted an unknown verdict")
	}
}

func TestTerminalVerdictSet(t *testing.T) {
	want := map[Verdict]bool{
		VerdictDelivered: true, VerdictLost: true, VerdictRejected: true,
		VerdictQueueDrop: true, VerdictSinkError: true,
	}
	for v := Verdict(0); v < numVerdicts; v++ {
		if got := v.Terminal(); got != want[v] {
			t.Errorf("%v.Terminal() = %v, want %v", v, got, want[v])
		}
	}
}

// journalFixture is a journey through every plane, the input of the
// JSONL round-trip test and a FuzzReadEventsJSONL seed.
var journalFixture = []Event{
	{At: 100, Stage: StageEmit, Verdict: VerdictEmitted,
		ID: ReportID{Addr: 0x3A0C2107, Channel: "CCTV1", Epoch: 42, Seq: 3}},
	{At: 100, Stage: StageFault, Verdict: VerdictLost,
		ID: ReportID{Addr: 0x3A0C2107, Channel: "CCTV1", Epoch: 42, Seq: 3}},
	{At: 250, Stage: StageServer, Verdict: VerdictQueueDrop, ID: ReportID{}},
	{At: 300, Stage: StageAnalyze, Verdict: VerdictConsumed, ID: ReportID{Epoch: 42}},
}

// malformedJournalLines are lines ReadEventsJSONL must reject.
var malformedJournalLines = []string{
	"{not json}\n",
	`{"at":1,"stage":"warp","verdict":"emitted"}` + "\n",
	`{"at":1,"stage":"emit","verdict":"vanished"}` + "\n",
	`{"at":1,"stage":"emit","verdict":"emitted","addr":"1.2.3"}` + "\n",
	`{"at":1,"stage":"emit","verdict":"emitted","addr":"1.2.3.999"}` + "\n",
}

func TestJournalJSONLRoundTrip(t *testing.T) {
	j := NewJournal(8)
	events := journalFixture
	for _, ev := range events {
		j.Record(ev.At, ev.Stage, ev.Verdict, ev.ID)
	}

	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if !strings.Contains(buf.String(), `"addr":"58.12.33.7"`) {
		t.Errorf("JSONL missing dotted-quad address:\n%s", buf.String())
	}

	got, err := ReadEventsJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadEventsJSONL: %v", err)
	}
	if len(got) != len(events) {
		t.Fatalf("round-trip produced %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d round-tripped to %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestReadEventsJSONLRejectsMalformed(t *testing.T) {
	for _, bad := range malformedJournalLines {
		if _, err := ReadEventsJSONL(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadEventsJSONL accepted %q", bad)
		}
	}
	// Blank lines are not errors.
	got, err := ReadEventsJSONL(strings.NewReader("\n\n"))
	if err != nil || len(got) != 0 {
		t.Errorf("ReadEventsJSONL(blank) = %v, %v; want empty, nil", got, err)
	}
}

func TestFormatParseAddr(t *testing.T) {
	for _, a := range []uint32{0, 1, 0x01020304, 0xFFFFFFFF, 0x3A0C2107} {
		s := FormatAddr(a)
		got, err := ParseJournalAddr(s)
		if err != nil || got != a {
			t.Errorf("ParseJournalAddr(FormatAddr(%#x)=%q) = %#x, %v", a, s, got, err)
		}
	}
}

// TestJournalRaceStress drives concurrent writers against concurrent
// /events readers and a metrics scrape; run under -race this pins the
// ring's synchronization.
func TestJournalRaceStress(t *testing.T) {
	j := NewJournal(64)
	reg := NewRegistry()
	RegisterJournalMetrics(reg, j)
	h := EventsHandler(j)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				j.Record(int64(i), Stage(i%int(numStages)), VerdictEmitted,
					ReportID{Addr: uint32(w), Seq: uint32(i)})
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/events?n=16", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("/events status %d", rec.Code)
					return
				}
				var buf bytes.Buffer
				if err := reg.WritePrometheus(&buf); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if got, want := j.Recorded(), uint64(4*500); got != want {
		t.Errorf("Recorded() = %d, want %d", got, want)
	}
	if got, want := j.Dropped(), j.Recorded()-uint64(j.Len()); got != want {
		t.Errorf("Dropped() = %d, want Recorded-Len = %d", got, want)
	}
}

func TestJournalMetricsExposition(t *testing.T) {
	j := NewJournal(2)
	reg := NewRegistry()
	RegisterJournalMetrics(reg, j)
	j.Record(1, StageEmit, VerdictEmitted, ReportID{})
	j.Record(2, StageFault, VerdictLost, ReportID{})
	j.Record(3, StageFault, VerdictLost, ReportID{})

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"magellan_journal_recorded_total 3\n",
		"magellan_journal_dropped_total 1\n",
		"magellan_journal_events 2\n",
		"magellan_journal_capacity 2\n",
		`magellan_journal_stage_events_total{stage="emit"} 1` + "\n",
		`magellan_journal_stage_events_total{stage="fault"} 2` + "\n",
		`magellan_journal_stage_events_total{stage="analyze"} 0` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestEventsHandler(t *testing.T) {
	j := NewJournal(8)
	j.Record(5, StageEmit, VerdictEmitted, ReportID{Addr: 0x01020304, Channel: "CCTV1", Epoch: 9, Seq: 1})
	h := EventsHandler(j)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/events", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /events status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var payload struct {
		Recorded uint64  `json:"recorded"`
		Dropped  uint64  `json:"dropped"`
		Events   []Event `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("decode /events: %v\n%s", err, rec.Body.String())
	}
	if payload.Recorded != 1 || len(payload.Events) != 1 {
		t.Errorf("payload = %+v, want 1 recorded, 1 event", payload)
	}
	if payload.Events[0].ID.Channel != "CCTV1" {
		t.Errorf("event round-tripped to %+v", payload.Events[0])
	}

	// POST must 405, matching the metrics handler's guard.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/events", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /events status %d, want 405", rec.Code)
	}
	if allow := rec.Header().Get("Allow"); allow != http.MethodGet {
		t.Errorf("Allow = %q, want GET", allow)
	}

	// Malformed ?n= is a client error, not a silent default.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/events?n=bogus", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("GET /events?n=bogus status %d, want 400", rec.Code)
	}

	// A nil journal serves the empty tail.
	rec = httptest.NewRecorder()
	EventsHandler(nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/events", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"events":[]`) {
		t.Errorf("nil-journal /events = %d %q", rec.Code, rec.Body.String())
	}
}

func TestJSONHandler(t *testing.T) {
	h := JSONHandler(func() any { return map[string]int{"x": 1} })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/status", nil))
	if rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != `{"x":1}` {
		t.Errorf("GET = %d %q", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/status", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE = %d, want 405", rec.Code)
	}
}

func TestBuildJourney(t *testing.T) {
	id := ReportID{Addr: 7, Channel: "CCTV1", Epoch: 4, Seq: 2}
	other := ReportID{Addr: 8, Channel: "CCTV1", Epoch: 4, Seq: 1}
	events := []Event{
		// Out of causal order on purpose; BuildJourney must sort.
		{At: 10, Stage: StageServer, Verdict: VerdictDelivered, ID: id},
		{At: 10, Stage: StageEmit, Verdict: VerdictEmitted, ID: id},
		{At: 10, Stage: StageFault, Verdict: VerdictJittered, ID: id},
		{At: 10, Stage: StageStore, Verdict: VerdictAccepted,
			ID: ReportID{Addr: 7, Channel: "CCTV1", Epoch: 4}},
		{At: 3, Stage: StageAnalyze, Verdict: VerdictConsumed, ID: ReportID{Epoch: 4}},
		{At: 3, Stage: StageAnalyze, Verdict: VerdictConsumed, ID: ReportID{Epoch: 5}},
		{At: 11, Stage: StageEmit, Verdict: VerdictEmitted, ID: other},
		{At: 12, Stage: StageEmit, Verdict: VerdictEmitted,
			ID: ReportID{Addr: 7, Channel: "CCTV1", Epoch: 5, Seq: 3}},
	}

	jo := BuildJourney(events, 7, 4, true)
	if len(jo.Legs) != 1 {
		t.Fatalf("got %d legs, want 1 (epoch filter + addr filter): %+v", len(jo.Legs), jo.Legs)
	}
	leg := jo.Legs[0]
	if leg.ID != id {
		t.Errorf("leg ID = %+v, want %+v", leg.ID, id)
	}
	wantOrder := []Verdict{VerdictEmitted, VerdictJittered, VerdictDelivered}
	for i, ev := range leg.Events {
		if ev.Verdict != wantOrder[i] {
			t.Errorf("leg event %d = %v, want %v (causal order)", i, ev.Verdict, wantOrder[i])
		}
	}
	if leg.Terminal == nil || leg.Terminal.Verdict != VerdictDelivered {
		t.Errorf("terminal = %+v, want delivered", leg.Terminal)
	}
	if len(jo.Plane) != 1 || jo.Plane[0].Verdict != VerdictAccepted {
		t.Errorf("plane = %+v, want the store accept", jo.Plane)
	}
	if len(jo.Analyze) != 1 || jo.Analyze[0].ID.Epoch != 4 {
		t.Errorf("analyze = %+v, want only epoch 4", jo.Analyze)
	}

	// Without the epoch filter both of peer 7's legs appear, epoch order.
	jo = BuildJourney(events, 7, 0, false)
	if len(jo.Legs) != 2 || jo.Legs[0].ID.Epoch != 4 || jo.Legs[1].ID.Epoch != 5 {
		t.Errorf("unfiltered legs = %+v, want epochs 4 then 5", jo.Legs)
	}
	if jo.Legs[1].Terminal != nil {
		t.Errorf("leg without a settling event reported terminal %+v", jo.Legs[1].Terminal)
	}
	if len(jo.Analyze) != 2 {
		t.Errorf("unfiltered analyze = %+v, want both epochs", jo.Analyze)
	}
}

func TestJournalCapacityDefault(t *testing.T) {
	for _, c := range []int{0, -5} {
		if got := NewJournal(c).Cap(); got != DefaultJournalCapacity {
			t.Errorf("NewJournal(%d).Cap() = %d, want %d", c, got, DefaultJournalCapacity)
		}
	}
}

func TestWallJournalStampsTime(t *testing.T) {
	j := NewWallJournal(4)
	j.RecordNow(StageServer, VerdictPersisted, ReportID{})
	if evs := j.Events(); len(evs) != 1 || evs[0].At == 0 {
		t.Errorf("wall journal events = %+v, want a nonzero timestamp", evs)
	}
}

func ExampleJournal() {
	j := NewJournal(16)
	id := ReportID{Addr: 0x01020304, Channel: "CCTV1", Epoch: 42, Seq: 1}
	j.Record(1000, StageEmit, VerdictEmitted, id)
	j.Record(1000, StageFault, VerdictLost, id)
	for _, ev := range j.Events() {
		fmt.Printf("%s %s %s\n", ev.Stage, ev.Verdict, FormatAddr(ev.ID.Addr))
	}
	// Output:
	// emit emitted 1.2.3.4
	// fault lost 1.2.3.4
}
