package tsdb

import (
	"bytes"
	"testing"
)

// FuzzReadJSONL is the fuzz target for history files, which
// magellan-report -health reads from disk. Beyond not panicking, any
// accepted input must be a fixed point after one rewrite: written back
// with WriteJSONL, re-read and re-written, it gives identical bytes.
func FuzzReadJSONL(f *testing.F) {
	var seed bytes.Buffer
	if err := sampledTestDB().WriteJSONL(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	for _, in := range malformedHistory {
		f.Add([]byte(in))
	}
	f.Add([]byte("\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// A small capacity, so inputs longer than a ring exercise eviction.
		db, err := ReadJSONL(bytes.NewReader(data), 4)
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := db.WriteJSONL(&first); err != nil {
			t.Fatalf("WriteJSONL of an accepted input: %v", err)
		}
		again, err := ReadJSONL(bytes.NewReader(first.Bytes()), 4)
		if err != nil {
			t.Fatalf("WriteJSONL output does not read back: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.WriteJSONL(&second); err != nil {
			t.Fatalf("second WriteJSONL: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("rewrite is not stable:\nfirst:\n%s\nsecond:\n%s", first.Bytes(), second.Bytes())
		}
	})
}
