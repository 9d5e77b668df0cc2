package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the flight recorder of the measurement plane: a bounded,
// drop-oldest journal of per-report lifecycle events. Every report minted
// by the simulator carries a stable ReportID, and each plane it crosses —
// emission, the fault-injected datagram path, the trace server, the
// store, the sealed index, the analysis pipeline — records one or more
// events against that ID. A journal answers "where did my data go?" for
// any individual report: delivered, or dead, and if dead, where and why.
//
// The determinism contract matches the span API: a nil *Journal is the
// disabled recorder — every method is a no-op that allocates nothing and
// reads no clock (pinned by TestNilJournalZeroAllocs) — and an enabled
// journal is strictly measurement-only: Record copies the event into a
// preallocated ring slot, draws no entropy, and feeds nothing back into
// the instrumented code. Simulator-side events are timestamped with the
// virtual tick the caller passes in; only NewWallJournal (daemon layer)
// ever reads the wall clock, and the determinism analyzer bans its
// construction inside the simulator core.

// ReportID is the stable identity of one measurement report: the
// reporting peer's address, its channel, the report interval (epoch) the
// report was emitted in, and a per-peer emission sequence number. It is
// minted at emission from simulation state only — no wall clock, no
// hashing — so the same seed mints the same IDs. Downstream planes that
// never saw the emission (the UDP trace server, the store) re-derive a
// partial ID from report contents with Seq zero.
type ReportID struct {
	// Addr is the peer's IPv4 address as a big-endian uint32 (the obs
	// package is a stdlib-only leaf, so it cannot name isp.Addr).
	Addr uint32
	// Channel is the channel the report describes.
	Channel string
	// Epoch is the report interval the report was emitted in.
	Epoch int64
	// Seq is the peer's emission counter (1-based); 0 means the recording
	// plane could not know it (re-derived downstream IDs).
	Seq uint32
}

// FormatAddr renders a ReportID address as a dotted quad.
func FormatAddr(a uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// ParseJournalAddr parses a dotted quad back into a ReportID address.
func ParseJournalAddr(s string) (uint32, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("obs: malformed address %q", s)
	}
	var a uint32
	for _, p := range parts {
		o, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("obs: malformed address %q: %w", s, err)
		}
		a = a<<8 | uint32(o)
	}
	return a, nil
}

// Stage names the plane that recorded an event.
type Stage uint8

const (
	// StageEmit is report assembly inside the simulator.
	StageEmit Stage = iota
	// StageFault is the fault-injected datagram path (netsim.Pipe).
	StageFault
	// StageServer is the trace server's ingest path (or the simulator
	// standing in for it on the in-process sink path).
	StageServer
	// StageStore is trace.Store.Submit.
	StageStore
	// StageSeal is sealed-index construction (trace.Store.Seal).
	StageSeal
	// StageAnalyze is per-epoch consumption by the analysis pipeline.
	StageAnalyze

	numStages
)

var stageNames = [numStages]string{"emit", "fault", "server", "store", "seal", "analyze"}

// String returns the stage's stable wire name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// ParseStage inverts String.
func ParseStage(s string) (Stage, error) {
	for i, n := range stageNames {
		if n == s {
			return Stage(i), nil
		}
	}
	return 0, fmt.Errorf("obs: unknown stage %q", s)
}

// Verdict is what happened to the report at a stage.
type Verdict uint8

const (
	// VerdictEmitted: the report was assembled and handed to the
	// measurement path.
	VerdictEmitted Verdict = iota
	// VerdictDelivered: the report arrived intact and the sink accepted
	// it (terminal).
	VerdictDelivered
	// VerdictLost: the datagram vanished in flight (terminal).
	VerdictLost
	// VerdictDuplicate: an extra copy of the datagram was delivered
	// (fault kind; the first copy still settles the report).
	VerdictDuplicate
	// VerdictMangled: the datagram was truncated in flight (fault kind;
	// the receiver's rejection is the terminal event).
	VerdictMangled
	// VerdictReordered: the datagram was held behind later traffic
	// (fault kind).
	VerdictReordered
	// VerdictJittered: the datagram was delayed by a jitter draw (fault
	// kind).
	VerdictJittered
	// VerdictReceived: the server decoded and validated the datagram.
	VerdictReceived
	// VerdictRejected: the receiver discarded the datagram as torn,
	// corrupt, or malformed (terminal).
	VerdictRejected
	// VerdictQueueDrop: the ingest queue was full and shed the datagram
	// (terminal).
	VerdictQueueDrop
	// VerdictSinkError: a well-formed report the sink refused (terminal).
	VerdictSinkError
	// VerdictPersisted: the sink durably accepted the report.
	VerdictPersisted
	// VerdictAccepted: trace.Store bucketed the report into its epoch.
	VerdictAccepted
	// VerdictIndexed: Seal kept this report as the peer's latest for the
	// epoch.
	VerdictIndexed
	// VerdictSuperseded: Seal's latest-by-peer dedup replaced this report
	// with a later one.
	VerdictSuperseded
	// VerdictConsumed: the analysis pipeline processed the epoch.
	VerdictConsumed

	numVerdicts
)

var verdictNames = [numVerdicts]string{
	"emitted", "delivered", "lost", "duplicate", "mangled", "reordered",
	"jittered", "received", "rejected", "queue_drop", "sink_error",
	"persisted", "accepted", "indexed", "superseded", "consumed",
}

// String returns the verdict's stable wire name.
func (v Verdict) String() string {
	if int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return fmt.Sprintf("verdict(%d)", uint8(v))
}

// ParseVerdict inverts String.
func ParseVerdict(s string) (Verdict, error) {
	for i, n := range verdictNames {
		if n == s {
			return Verdict(i), nil
		}
	}
	return 0, fmt.Errorf("obs: unknown verdict %q", s)
}

// Terminal reports whether the verdict settles a report's fate: every
// emitted report ends in exactly one terminal verdict (the conservation
// property the chaos tests pin).
func (v Verdict) Terminal() bool {
	switch v {
	case VerdictDelivered, VerdictLost, VerdictRejected, VerdictQueueDrop, VerdictSinkError:
		return true
	}
	return false
}

// Event is one recorded lifecycle step.
type Event struct {
	// At is the event instant in Unix nanoseconds: the virtual tick for
	// simulator-side events, the wall clock for daemon-side ones.
	At      int64
	Stage   Stage
	Verdict Verdict
	ID      ReportID
	// Shard is the 1-based label of the ingest shard that recorded the
	// event; 0 means the recording plane was not sharded (or predates
	// sharding — the zero value keeps old journal files readable). The
	// label is 1-based precisely so the unsharded zero value never
	// collides with a real shard index.
	Shard int32
}

// eventJSON is Event's stable wire shape (journal files, /events).
type eventJSON struct {
	At      int64  `json:"at"`
	Stage   string `json:"stage"`
	Verdict string `json:"verdict"`
	Addr    string `json:"addr,omitempty"`
	Channel string `json:"channel,omitempty"`
	Epoch   int64  `json:"epoch,omitempty"`
	Seq     uint32 `json:"seq,omitempty"`
	Shard   int32  `json:"shard,omitempty"`
}

// MarshalJSON renders the event with symbolic stage/verdict names and a
// dotted-quad address.
func (e Event) MarshalJSON() ([]byte, error) {
	j := eventJSON{
		At:      e.At,
		Stage:   e.Stage.String(),
		Verdict: e.Verdict.String(),
		Channel: e.ID.Channel,
		Epoch:   e.ID.Epoch,
		Seq:     e.ID.Seq,
		Shard:   e.Shard,
	}
	if e.ID.Addr != 0 {
		j.Addr = FormatAddr(e.ID.Addr)
	}
	return json.Marshal(j)
}

// UnmarshalJSON inverts MarshalJSON.
func (e *Event) UnmarshalJSON(data []byte) error {
	var j eventJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	stage, err := ParseStage(j.Stage)
	if err != nil {
		return err
	}
	verdict, err := ParseVerdict(j.Verdict)
	if err != nil {
		return err
	}
	var addr uint32
	if j.Addr != "" {
		if addr, err = ParseJournalAddr(j.Addr); err != nil {
			return err
		}
	}
	*e = Event{
		At:      j.At,
		Stage:   stage,
		Verdict: verdict,
		ID:      ReportID{Addr: addr, Channel: j.Channel, Epoch: j.Epoch, Seq: j.Seq},
		Shard:   j.Shard,
	}
	return nil
}

// DefaultJournalCapacity is the ring bound used when a constructor is
// given a non-positive capacity.
const DefaultJournalCapacity = 4096

// A Journal is the bounded event ring. All methods are safe for
// concurrent use, and all are no-ops on a nil receiver — the disabled
// recorder costs nothing.
type Journal struct {
	// now, when non-nil, timestamps RecordNow events (wall journals
	// only; see NewWallJournal).
	now func() int64

	mu    sync.Mutex
	buf   []Event // fixed capacity, allocated once
	start int     // index of the oldest held event
	held  int     // number of events currently held
	// size is cap(buf), fixed at construction: Cap reads it without the
	// lock, while Record rewrites buf's slice header under it.
	size int

	// Drop and stage accounting is atomic so metric scrapes never take
	// the ring lock.
	recorded atomic.Uint64
	dropped  atomic.Uint64
	stages   [numStages]atomic.Uint64
}

// NewJournal builds a recorder whose events are timestamped by the
// caller (Record). This is the deterministic-safe constructor: it never
// reads a clock, so simulator-side journals record virtual ticks only.
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	return &Journal{buf: make([]Event, 0, capacity), size: capacity}
}

// NewWallJournal is NewJournal plus a wall clock for RecordNow: the
// daemon-side constructor. The determinism analyzer bans it inside the
// simulator core, exactly like StartTimer and NewStageProfile.
func NewWallJournal(capacity int) *Journal {
	j := NewJournal(capacity)
	j.now = func() int64 { return time.Now().UnixNano() }
	return j
}

// Record appends one event, overwriting the oldest (with drop
// accounting) when the ring is full. at is the event instant in Unix
// nanoseconds — virtual time in the simulator, wall time in daemons.
func (j *Journal) Record(at int64, stage Stage, verdict Verdict, id ReportID) {
	j.RecordShard(at, stage, verdict, id, 0)
}

// RecordShard is Record with an ingest-shard label: shard is 1-based
// (shard k of a fleet records k+1), 0 for unsharded planes. Sharded
// ingest tiers use it so a fleet-wide journal still attributes every
// verdict to the server that issued it.
func (j *Journal) RecordShard(at int64, stage Stage, verdict Verdict, id ReportID, shard int32) {
	if j == nil {
		return
	}
	ev := Event{At: at, Stage: stage, Verdict: verdict, ID: id, Shard: shard}
	j.mu.Lock()
	if j.held < cap(j.buf) {
		j.buf = append(j.buf, ev)
		j.held++
	} else {
		j.buf[j.start] = ev
		j.start++
		if j.start == cap(j.buf) {
			j.start = 0
		}
		j.dropped.Add(1)
	}
	j.mu.Unlock()
	j.recorded.Add(1)
	if int(stage) < len(j.stages) {
		j.stages[stage].Add(1)
	}
}

// RecordNow is Record timestamped by the journal's own clock. On a
// tick-stamped journal (NewJournal) the event is recorded at instant 0,
// so misuse is visible rather than nondeterministic.
func (j *Journal) RecordNow(stage Stage, verdict Verdict, id ReportID) {
	j.RecordNowShard(stage, verdict, id, 0)
}

// RecordNowShard is RecordNow with a 1-based ingest-shard label (see
// RecordShard).
func (j *Journal) RecordNowShard(stage Stage, verdict Verdict, id ReportID, shard int32) {
	if j == nil {
		return
	}
	var at int64
	if j.now != nil {
		at = j.now()
	}
	j.RecordShard(at, stage, verdict, id, shard)
}

// Len returns the number of events currently held.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.held
}

// Cap returns the ring bound (0 for the disabled recorder).
func (j *Journal) Cap() int {
	if j == nil {
		return 0
	}
	return j.size
}

// Recorded returns the total number of events ever recorded.
func (j *Journal) Recorded() uint64 {
	if j == nil {
		return 0
	}
	return j.recorded.Load()
}

// Dropped returns how many events were overwritten by drop-oldest.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	return j.dropped.Load()
}

// StageCount returns how many events were recorded at one stage.
func (j *Journal) StageCount(s Stage) uint64 {
	if j == nil || int(s) >= len(j.stages) {
		return 0
	}
	return j.stages[s].Load()
}

// Events returns a copy of the held events, oldest first.
func (j *Journal) Events() []Event {
	return j.Tail(-1)
}

// Tail returns a copy of the most recent n events, oldest first. n < 0
// means all held events.
func (j *Journal) Tail(n int) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if n < 0 || n > j.held {
		n = j.held
	}
	out := make([]Event, 0, n)
	for i := j.held - n; i < j.held; i++ {
		out = append(out, j.buf[(j.start+i)%cap(j.buf)])
	}
	return out
}

// WriteJSONL streams the held events, oldest first, one JSON object per
// line — the journal file format magellan-inspect -journey reads.
func (j *Journal) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range j.Events() {
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("obs: encode journal event: %w", err)
		}
	}
	return bw.Flush()
}

// ReadEventsJSONL parses a journal file written by WriteJSONL. Blank
// lines are skipped; a malformed line is an error, not a silent gap — a
// forensic tool must not invent holes in the record.
func ReadEventsJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(text), &ev); err != nil {
			return nil, fmt.Errorf("obs: journal line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: read journal: %w", err)
	}
	return out, nil
}

// journalStages exposes the per-stage counters as one labelled counter
// family. It implements collector directly so the family renders one
// sample per stage without registering per-stage metric names.
type journalStages struct{ j *Journal }

func (journalStages) typ() string { return "counter" }

func (c journalStages) emit(b []byte, name, _ string) []byte {
	for s := Stage(0); s < numStages; s++ {
		b = append(b, name...)
		b = append(b, `{stage="`...)
		b = append(b, s.String()...)
		b = append(b, `"} `...)
		b = strconv.AppendUint(b, c.j.StageCount(s), 10)
		b = append(b, '\n')
	}
	return b
}

func (c journalStages) sample(out []SnapshotSample, name, _ string) []SnapshotSample {
	for s := Stage(0); s < numStages; s++ {
		out = append(out, SnapshotSample{
			Series: name + `{stage="` + s.String() + `"}`,
			Value:  float64(c.j.StageCount(s)),
		})
	}
	return out
}

// RegisterJournalMetrics exposes a journal's accounting on the registry:
// events recorded and dropped, ring occupancy and bound, and per-stage
// event counts. Scrapes read atomics (and the ring lock only for
// occupancy), so exposition never perturbs recording.
func RegisterJournalMetrics(reg *Registry, j *Journal) {
	reg.CounterFunc("magellan_journal_recorded_total",
		"Lifecycle events recorded into the flight-recorder ring.",
		j.Recorded)
	reg.CounterFunc("magellan_journal_dropped_total",
		"Lifecycle events overwritten by the ring's drop-oldest policy.",
		j.Dropped)
	reg.GaugeFunc("magellan_journal_events",
		"Lifecycle events currently held in the ring.",
		func() float64 { return float64(j.Len()) })
	reg.GaugeFunc("magellan_journal_capacity",
		"Bound of the flight-recorder ring.",
		func() float64 { return float64(j.Cap()) })
	reg.register("magellan_journal_stage_events_total",
		"Lifecycle events recorded, by recording stage.",
		nil, journalStages{j})
}
