package trace

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
)

func benchReports(n int) []Report {
	rng := rand.New(rand.NewSource(1))
	out := make([]Report, n)
	for i := range out {
		out[i] = randomReport(rng)
	}
	return out
}

func BenchmarkAppendReport(b *testing.B) {
	reports := benchReports(256)
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendReport(buf[:0], &reports[i%len(reports)])
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkDecodeReport(b *testing.B) {
	reports := benchReports(256)
	encoded := make([][]byte, len(reports))
	for i := range reports {
		encoded[i] = AppendReport(nil, &reports[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeReport(encoded[i%len(encoded)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriterThroughput(b *testing.B) {
	reports := benchReports(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			b.Fatal(err)
		}
		for j := range reports {
			if err := w.Submit(reports[j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

func BenchmarkStoreSubmit(b *testing.B) {
	reports := benchReports(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := NewStore(10 * time.Minute)
		for j := range reports {
			if err := store.Submit(reports[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
