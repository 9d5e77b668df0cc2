// Package maporderfx exercises the maporder analyzer: emission inside
// map iteration and unsorted key collection, direct or through a local
// closure, are flagged; the collect-sort-emit pattern and slice
// iteration stay clean.
package maporderfx

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// EmitUnsorted writes rows straight out of map iteration: flagged.
func EmitUnsorted(w io.Writer, shares map[string]float64) {
	for name, v := range shares {
		fmt.Fprintf(w, "%s,%g\n", name, v) // want `fmt\.Fprintf inside iteration over a map`
	}
}

// ConcatUnsorted builds a string in map order: flagged even though the
// builder itself cannot fail.
func ConcatUnsorted(parts map[string]string) string {
	var sb strings.Builder
	for _, p := range parts {
		sb.WriteString(p) // want `method WriteString inside iteration over a map`
	}
	return sb.String()
}

// BuildUnsorted collects keys but never sorts them: flagged.
func BuildUnsorted(shares map[string]float64) []string {
	var names []string
	for name := range shares {
		names = append(names, name) // want `names accumulates map keys`
	}
	return names
}

// BuildThroughClosure collects keys through a local closure the map
// range calls, and never sorts them: flagged at the closure's append.
func BuildThroughClosure(shares map[string]float64) []string {
	var names []string
	add := func(name string) {
		names = append(names, name) // want `names accumulates map keys`
	}
	for name := range shares {
		add(name)
	}
	return names
}

// BuildThroughClosureSorted sorts what its closure collected: clean.
func BuildThroughClosureSorted(shares map[string]float64) []string {
	var names []string
	add := func(name string) {
		names = append(names, name)
	}
	for name := range shares {
		add(name)
	}
	sort.Strings(names)
	return names
}

// BuildSorted is the sanctioned pattern: collect, then sort, then use.
func BuildSorted(shares map[string]float64) []string {
	names := make([]string, 0, len(shares))
	for name := range shares {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// EmitSorted emits through the sorted-keys pattern: clean end to end.
func EmitSorted(w io.Writer, shares map[string]float64) error {
	keys := make([]string, 0, len(shares))
	for k := range shares {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s,%g\n", k, shares[k]); err != nil {
			return err
		}
	}
	return nil
}

// EmitSlice ranges a slice, not a map: clean.
func EmitSlice(w io.Writer, rows []string) {
	for _, r := range rows {
		fmt.Fprintln(w, r)
	}
}

// Aggregate folds map values commutatively without emission: clean.
func Aggregate(shares map[string]float64) float64 {
	total := 0.0
	for _, v := range shares {
		total += v
	}
	return total
}
