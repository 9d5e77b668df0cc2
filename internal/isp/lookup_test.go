package isp

import (
	"fmt"
	"math/rand"
	"testing"
)

// linearLookup is the oracle for Lookup: a scan over every range.
func linearLookup(rs []Range, a Addr) ISP {
	for _, r := range rs {
		if r.Contains(a) {
			return r.ISP
		}
	}
	return Unknown
}

// lookupProbes returns the addresses worth checking against db: each
// range boundary ±1, the first and last address of every /16 a boundary
// falls in (the prefix index's own edges), the middle of each gap, the
// ends of the address space, and random addresses inside and outside the
// span the ranges cover. Address arithmetic wraps, which turns 0-1 and
// 255.255.255.255+1 into probes at the other end of the space.
func lookupProbes(rng *rand.Rand, rs []Range) []Addr {
	probes := []Addr{0, 1, 0xFFFFFFFE, 0xFFFFFFFF}
	for i, r := range rs {
		for _, b := range []Addr{r.Lo, r.Hi} {
			probes = append(probes, b-1, b, b+1, b&^0xFFFF, b|0xFFFF, b&^0xFFFF-1, b|0xFFFF+1)
		}
		if i > 0 && uint64(rs[i-1].Hi)+1 < uint64(r.Lo) {
			probes = append(probes, rs[i-1].Hi+(r.Lo-rs[i-1].Hi)/2)
		}
	}
	for k := 0; k < 2000; k++ {
		probes = append(probes, Addr(rng.Uint32()))
	}
	if len(rs) > 0 {
		lo, span := uint64(rs[0].Lo), uint64(rs[len(rs)-1].Hi)-uint64(rs[0].Lo)+1
		for k := 0; k < 2000; k++ {
			probes = append(probes, Addr(lo+uint64(rng.Int63n(int64(span)))))
		}
	}
	return probes
}

func checkLookupAgainstOracle(t *testing.T, rng *rand.Rand, db *Database) {
	t.Helper()
	rs := db.Ranges()
	bad := 0
	for _, a := range lookupProbes(rng, rs) {
		if got, want := db.Lookup(a), linearLookup(rs, a); got != want {
			t.Errorf("Lookup(%v) = %v, linear scan says %v", a, got, want)
			if bad++; bad == 10 {
				t.Fatal("too many mismatches")
			}
		}
	}
}

// TestLookupMatchesLinearScan checks the prefix-indexed Lookup against a
// linear scan on generated databases of several seeds and sizes and on
// hand-built shapes the generator never produces.
func TestLookupMatchesLinearScan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, gen := range []GenConfig{
			{Blocks: 1},
			{Blocks: 7, MaxGap: 1},
			{Blocks: 64},
			{Blocks: 1024},
			{Blocks: 300, MaxGap: 1 << 20},
		} {
			t.Run(fmt.Sprintf("generated/seed%d/blocks%d/gap%d", seed, gen.Blocks, gen.MaxGap), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				db, err := Generate(rng, gen)
				if err != nil {
					t.Fatalf("Generate: %v", err)
				}
				checkLookupAgainstOracle(t, rng, db)
			})
		}
	}

	const last = Addr(0xFFFFFFFF)
	var packed []Range // several ranges inside one /16, with gaps
	for i := Addr(0); i < 40; i++ {
		lo := MustParseAddr("10.1.0.0") + i*1000
		packed = append(packed, Range{Lo: lo, Hi: lo + 1 + i*7, ISP: All()[int(i)%NumISPs]})
	}
	packed = append(packed,
		Range{Lo: MustParseAddr("10.0.255.250"), Hi: MustParseAddr("10.0.255.255"), ISP: Oversea},
		Range{Lo: MustParseAddr("10.2.0.0"), Hi: MustParseAddr("10.2.0.9"), ISP: ChinaTelecom})

	hand := []struct {
		name   string
		ranges []Range
	}{
		{name: "empty"},
		{name: "single", ranges: []Range{{Lo: MustParseAddr("58.14.0.0"), Hi: MustParseAddr("58.14.3.255"), ISP: ChinaNetcom}}},
		{name: "single address", ranges: []Range{{Lo: 77, Hi: 77, ISP: ChinaTelecom}}},
		{name: "whole space", ranges: []Range{{Lo: 0, Hi: last, ISP: Oversea}}},
		{name: "touching both ends", ranges: []Range{
			{Lo: 0, Hi: 0, ISP: ChinaTelecom},
			{Lo: 1, Hi: MustParseAddr("0.0.255.255"), ISP: ChinaNetcom},
			{Lo: MustParseAddr("128.0.0.0"), Hi: MustParseAddr("128.0.0.0"), ISP: ChinaUnicom},
			{Lo: MustParseAddr("255.255.0.0"), Hi: last - 1, ISP: ChinaTietong},
			{Lo: last, Hi: last, ISP: Oversea},
		}},
		{name: "many in one /16", ranges: packed},
		{name: "one spanning many /16s", ranges: []Range{
			{Lo: MustParseAddr("9.255.255.255"), Hi: MustParseAddr("9.255.255.255"), ISP: ChinaUnicom},
			{Lo: MustParseAddr("10.0.0.5"), Hi: MustParseAddr("10.200.3.7"), ISP: ChinaTelecom},
			{Lo: MustParseAddr("10.200.3.8"), Hi: MustParseAddr("10.200.3.8"), ISP: ChinaNetcom},
			{Lo: MustParseAddr("10.200.9.0"), Hi: MustParseAddr("12.0.0.0"), ISP: Oversea},
		}},
	}
	for _, tt := range hand {
		t.Run(tt.name, func(t *testing.T) {
			checkLookupAgainstOracle(t, rand.New(rand.NewSource(4)), mustDB(t, tt.ranges))
		})
	}
}
