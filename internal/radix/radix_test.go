package radix

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// lengths straddle the small-input cutoff on both sides.
var lengths = []int{0, 1, 2, smallSort - 1, smallSort, smallSort + 1, 1000, 5000}

// keyShapes are generators, for a key type whose largest value is top,
// of keys whose bytes vary in different positions: fully random, sharing every high byte, sharing the high half,
// sitting on the extremes, nine in ten keys equal, and every key equal.
func keyShapes[K Key](top K) []keyShape[K] {
	return []keyShape[K]{
		{"random", func(r *rand.Rand) K { return K(r.Uint64()) }},
		{"low_byte_only", func(r *rand.Rand) K {
			return top&^0xff | K(r.Intn(256))
		}},
		{"shared_high_half", func(r *rand.Rand) K {
			half := top >> (bits.Len64(uint64(top)) / 2)
			return top&^half | K(r.Uint64())&half
		}},
		{"extremes", func(r *rand.Rand) K {
			switch r.Intn(4) {
			case 0:
				return 0
			case 1:
				return top
			default:
				return K(r.Uint64())
			}
		}},
		{"mostly_equal", func(r *rand.Rand) K {
			if r.Intn(10) == 0 {
				return K(r.Uint64())
			}
			return 0xABCD
		}},
		{"all_equal", func(*rand.Rand) K { return 0xABCD }},
	}
}

type keyShape[K Key] struct {
	name string
	gen  func(*rand.Rand) K
}

// checkSort runs Sort on every shape and length and compares it with
// slices.Sort, reusing one scratch buffer across calls the way the
// builders do.
func checkSort[K Key](t *testing.T, top K) {
	rng := rand.New(rand.NewSource(1))
	var keys, scratch []K
	for _, shape := range keyShapes(top) {
		for _, n := range lengths {
			keys = keys[:0]
			for i := 0; i < n; i++ {
				keys = append(keys, shape.gen(rng))
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			keys = Sort(keys, &scratch)
			if !slices.Equal(keys, want) {
				t.Fatalf("%s, n=%d: Sort differs from slices.Sort", shape.name, n)
			}
			if n > 0 && cap(scratch) > 0 && &keys[:1][0] == &scratch[:1][0] {
				t.Fatalf("%s, n=%d: result and scratch share a backing array", shape.name, n)
			}
		}
	}
}

func TestSortMatchesSlicesSort(t *testing.T) {
	t.Run("uint32", func(t *testing.T) { checkSort[uint32](t, math.MaxUint32) })
	t.Run("uint64", func(t *testing.T) { checkSort[uint64](t, math.MaxUint64) })
}

// TestSortNoAllocsWithWarmScratch pins that the passes allocate nothing
// once the scratch is large enough.
func TestSortNoAllocsWithWarmScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	keys := make([]uint32, 4096)
	scratch := make([]uint32, len(keys))
	if allocs := testing.AllocsPerRun(20, func() {
		for i := range keys {
			keys[i] = rng.Uint32()
		}
		keys = Sort(keys, &scratch)
	}); allocs != 0 {
		t.Errorf("Sort allocates %.0f objects per call with warm scratch, want 0", allocs)
	}
}

func BenchmarkSort(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	src := make([]uint32, 8192)
	for i := range src {
		src[i] = rng.Uint32()
	}
	keys := make([]uint32, len(src))
	var scratch []uint32
	b.Run("radix_uint32_8k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			keys = append(keys[:0], src...)
			keys = Sort(keys, &scratch)
		}
	})
	b.Run("slices_uint32_8k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			keys = append(keys[:0], src...)
			slices.Sort(keys)
		}
	})
}
