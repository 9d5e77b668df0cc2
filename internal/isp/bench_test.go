package isp

import (
	"math/rand"
	"testing"
)

// lookupSink keeps the compiler from discarding benchmarked lookups.
var lookupSink ISP

// BenchmarkLookup times Lookup on addresses the database covers (drawn
// from an Allocator, as the simulator draws peer addresses) and,
// separately, on addresses it does not.
func BenchmarkLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	db, err := Generate(rng, GenConfig{Blocks: 1024})
	if err != nil {
		b.Fatal(err)
	}
	alloc := NewAllocator(rng, db)
	shares := DefaultShares()
	hits := make([]Addr, 4096)
	for i := range hits {
		if hits[i], err = alloc.Alloc(SampleISP(rng, shares)); err != nil {
			b.Fatal(err)
		}
	}
	misses := make([]Addr, 0, len(hits))
	for len(misses) < cap(misses) {
		if a := Addr(rng.Uint32()); db.Lookup(a) == Unknown {
			misses = append(misses, a)
		}
	}
	for _, bc := range []struct {
		name  string
		addrs []Addr
	}{{"hit", hits}, {"miss", misses}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lookupSink = db.Lookup(bc.addrs[i%len(bc.addrs)])
			}
		})
	}
}

func BenchmarkAlloc(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	db, err := Generate(rng, GenConfig{Blocks: 1024})
	if err != nil {
		b.Fatal(err)
	}
	alloc := NewAllocator(rng, db)
	shares := DefaultShares()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alloc.Alloc(SampleISP(rng, shares)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate(rand.New(rand.NewSource(int64(i))), GenConfig{Blocks: 1024}); err != nil {
			b.Fatal(err)
		}
	}
}
