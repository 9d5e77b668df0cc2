package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

// FuzzReadEventsJSONL is the fuzz target for journal files, which
// magellan-inspect and magellan-analyze -journal read from disk. Beyond
// not panicking, the events of any accepted input must re-marshal and
// re-read equal.
func FuzzReadEventsJSONL(f *testing.F) {
	j := NewJournal(len(journalFixture))
	for _, ev := range journalFixture {
		j.RecordShard(ev.At, ev.Stage, ev.Verdict, ev.ID, ev.Shard)
	}
	var seed bytes.Buffer
	if err := j.WriteJSONL(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"at":7,"stage":"server","verdict":"delivered","addr":"10.0.0.1","shard":2}` + "\n"))
	for _, line := range malformedJournalLines {
		f.Add([]byte(line))
	}
	f.Add([]byte("\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadEventsJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var lines bytes.Buffer
		for _, ev := range events {
			b, err := json.Marshal(ev)
			if err != nil {
				t.Fatalf("marshal accepted event %+v: %v", ev, err)
			}
			lines.Write(b)
			lines.WriteByte('\n')
		}
		again, err := ReadEventsJSONL(&lines)
		if err != nil {
			t.Fatalf("re-marshaled events do not read back: %v", err)
		}
		if !slices.Equal(events, again) {
			t.Fatalf("events changed across a re-marshal:\n got %+v\nwant %+v", again, events)
		}
	})
}
