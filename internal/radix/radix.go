//magellan:hotpath

// Package radix sorts unsigned integer keys with an LSD radix sort over
// caller-owned scratch. It is a leaf (standard library only), so both the
// graph builders' packed-edge sorts and the sealed index's all-peers
// column share one implementation without an import between them.
package radix

import (
	"math"
	"slices"
)

// Key is an unsigned integer key: an IPv4 address, or a packed edge.
type Key interface{ ~uint32 | ~uint64 }

// smallSort is the length below which slices.Sort beats the radix passes'
// fixed 256-bucket cost.
const smallSort = 128

// Sort sorts keys ascending and returns them. Short inputs are sorted in
// place by slices.Sort. Longer ones take one read pass that counts every
// byte position at once, then one scatter pass per byte position that
// varies between keys (a byte every key shares, such as the zero high
// bytes of small node indices, needs none), ping-ponging between keys and
// *scratch. A scratch shorter than keys is replaced by one of len(keys)
// or twice its old capacity, whichever is larger, so a caller sorting
// ever longer inputs through one scratch regrows it O(log n) times.
//
// The sorted keys end in either backing array. When they end in the
// scratch array, Sort hands keys' old array back through *scratch, so a
// caller that assigns the result to its keys buffer keeps two distinct
// buffers for the next call. The order is the total order on K either
// way, so the result equals slices.Sort's.
func Sort[K Key](keys []K, scratch *[]K) []K {
	n := len(keys)
	if n < smallSort {
		slices.Sort(keys)
		return keys
	}
	digits := 4
	if uint64(^K(0)) > math.MaxUint32 {
		digits = 8
	}
	var counts [8][256]int
	for _, k := range keys {
		u := uint64(k)
		counts[0][byte(u)]++
		counts[1][byte(u>>8)]++
		counts[2][byte(u>>16)]++
		counts[3][byte(u>>24)]++
	}
	if digits == 8 {
		for _, k := range keys {
			u := uint64(k) >> 32
			counts[4][byte(u)]++
			counts[5][byte(u>>8)]++
			counts[6][byte(u>>16)]++
			counts[7][byte(u>>24)]++
		}
	}
	if cap(*scratch) < n {
		*scratch = make([]K, n, max(n, 2*cap(*scratch)))
	}
	src, dst := keys, (*scratch)[:n]
	for d := 0; d < digits; d++ {
		c := &counts[d]
		shift := 8 * d
		if c[byte(src[0]>>shift)] == n {
			continue // every key has this byte
		}
		sum := 0
		for i, v := range c {
			c[i] = sum
			sum += v
		}
		for _, k := range src {
			b := byte(k >> shift)
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		*scratch = keys[:0]
	}
	return src
}
