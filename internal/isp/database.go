package isp

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Range maps a contiguous block of IPv4 addresses [Lo, Hi] (inclusive) to
// an ISP, matching the row format of the mapping database UUSee Inc.
// provided to the Magellan project.
type Range struct {
	Lo  Addr
	Hi  Addr
	ISP ISP
}

// Contains reports whether a falls inside the range.
func (r Range) Contains(a Addr) bool {
	return r.Lo <= a && a <= r.Hi
}

// Size returns the number of addresses covered by the range.
func (r Range) Size() uint64 {
	return uint64(r.Hi) - uint64(r.Lo) + 1
}

// Database is an immutable IP-range-to-ISP mapping, the synthetic
// equivalent of the database described in Sec. 4.1.2 of the paper: for
// each Chinese address it yields the specific carrier, and for addresses
// outside China a single overseas code.
type Database struct {
	ranges []Range // sorted by Lo, non-overlapping

	// Prefix index over the /16s the ranges span: for the k-th prefix
	// after base, first[k] is the position of the first range ending at
	// or after that prefix's first address. A lookup's answer lies in
	// ranges[first[k]:first[k+1]+1], which is one or two ranges unless
	// several ranges share a /16. first has one entry per spanned prefix
	// plus a final len(ranges), and is nil for an empty database.
	base  uint32
	first []uint32
}

// Errors returned while constructing or decoding a database.
var (
	ErrOverlap   = errors.New("isp: overlapping ranges")
	ErrBadRange  = errors.New("isp: range with Hi < Lo")
	ErrBadFormat = errors.New("isp: malformed database line")
)

// NewDatabase builds a database from the given ranges. The ranges are
// sorted; overlapping or inverted ranges are rejected.
func NewDatabase(ranges []Range) (*Database, error) {
	rs := make([]Range, len(ranges))
	copy(rs, ranges)
	slices.SortFunc(rs, func(a, b Range) int { return cmp.Compare(a.Lo, b.Lo) })
	for i, r := range rs {
		if r.Hi < r.Lo {
			return nil, fmt.Errorf("%w: %v-%v", ErrBadRange, r.Lo, r.Hi)
		}
		if i > 0 && rs[i-1].Hi >= r.Lo {
			return nil, fmt.Errorf("%w: %v-%v and %v-%v",
				ErrOverlap, rs[i-1].Lo, rs[i-1].Hi, r.Lo, r.Hi)
		}
	}
	db := &Database{ranges: rs}
	db.buildPrefixIndex()
	return db, nil
}

// buildPrefixIndex fills base and first in O(ranges + span).
func (db *Database) buildPrefixIndex() {
	rs := db.ranges
	if len(rs) == 0 {
		return
	}
	db.base = uint32(rs[0].Lo) >> 16
	span := uint32(rs[len(rs)-1].Hi)>>16 - db.base + 1
	db.first = make([]uint32, span+1)
	i := 0
	for k := range db.first {
		// uint64, so the prefix after 255.255.0.0/16 does not wrap to 0.
		start := uint64(db.base+uint32(k)) << 16
		for i < len(rs) && uint64(rs[i].Hi) < start {
			i++
		}
		db.first[k] = uint32(i)
	}
}

// Lookup resolves an address to its ISP. Addresses not covered by any
// range resolve to Unknown; callers typically treat those as Oversea, as
// UUSee's database did for out-of-China addresses, but the distinction is
// preserved so tests can detect coverage gaps.
func (db *Database) Lookup(a Addr) ISP {
	// Lookup runs for every visible peer and every partner-list entry of
	// every epoch, so the /16 prefix index narrows the search to the few
	// ranges touching a's prefix before the open-coded binary search.
	k := uint32(a)>>16 - db.base // wraps past the span for a below base
	if uint64(k)+1 >= uint64(len(db.first)) {
		return Unknown
	}
	rs := db.ranges
	lo, hi := int(db.first[k]), int(db.first[k+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rs[mid].Hi < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(rs) && rs[lo].Contains(a) {
		return rs[lo].ISP
	}
	return Unknown
}

// Len returns the number of ranges in the database.
func (db *Database) Len() int { return len(db.ranges) }

// Ranges returns a copy of the ranges, sorted by lower bound.
func (db *Database) Ranges() []Range {
	rs := make([]Range, len(db.ranges))
	copy(rs, db.ranges)
	return rs
}

// AddressMass returns, per ISP, the total number of addresses the
// database assigns to it. Used to validate that generated databases match
// the requested population shares.
func (db *Database) AddressMass() map[ISP]uint64 {
	mass := make(map[ISP]uint64, NumISPs)
	for _, r := range db.ranges {
		mass[r.ISP] += r.Size()
	}
	return mass
}

// WriteTo serializes the database as one "lo,hi,isp" line per range, a
// format close to commercial IP-geolocation dumps.
func (db *Database) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	for _, r := range db.ranges {
		c, err := fmt.Fprintf(bw, "%s,%s,%s\n", r.Lo, r.Hi, r.ISP)
		n += int64(c)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadDatabase parses the serialization produced by WriteTo.
func ReadDatabase(r io.Reader) (*Database, error) {
	var ranges []Range
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.SplitN(text, ",", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("%w: line %d: %q", ErrBadFormat, line, text)
		}
		lo, err := ParseAddr(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		hi, err := ParseAddr(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		p, err := ParseISP(strings.TrimSpace(parts[2]))
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		ranges = append(ranges, Range{Lo: lo, Hi: hi, ISP: p})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return NewDatabase(ranges)
}
