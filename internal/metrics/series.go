// Package metrics provides the small statistics toolkit the analyzers
// share: time series over trace epochs, integer histograms with PDFs and
// CCDFs, logarithmic binning for log-log degree plots, and quantile
// helpers.
package metrics

import (
	"fmt"
	"io"
	"math"
	"slices"
	"time"
)

// Point is one sample of a time series.
type Point struct {
	T time.Time
	V float64
}

// Series is an append-only time series. Call Sort before order-dependent
// operations if samples arrived out of order.
type Series struct {
	points []Point
}

// NewSeries returns an empty series.
func NewSeries() *Series { return &Series{} }

// Add appends a sample.
func (s *Series) Add(t time.Time, v float64) {
	s.points = append(s.points, Point{T: t, V: v})
}

// Len returns the sample count.
func (s *Series) Len() int { return len(s.points) }

// At returns the i-th sample.
func (s *Series) At(i int) Point { return s.points[i] }

// Points returns a copy of the samples.
func (s *Series) Points() []Point {
	out := make([]Point, len(s.points))
	copy(out, s.points)
	return out
}

// Sort orders samples by time.
func (s *Series) Sort() {
	slices.SortFunc(s.points, func(a, b Point) int { return a.T.Compare(b.T) })
}

// Mean returns the average value, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.points {
		sum += p.V
	}
	return sum / float64(len(s.points))
}

// Min returns the smallest sample value, or 0 for an empty series.
func (s *Series) Min() float64 {
	if len(s.points) == 0 {
		return 0
	}
	min := math.Inf(1)
	for _, p := range s.points {
		if p.V < min {
			min = p.V
		}
	}
	return min
}

// Max returns the largest sample value, or 0 for an empty series.
func (s *Series) Max() float64 {
	if len(s.points) == 0 {
		return 0
	}
	max := math.Inf(-1)
	for _, p := range s.points {
		if p.V > max {
			max = p.V
		}
	}
	return max
}

// MaxPoint returns the sample with the largest value.
func (s *Series) MaxPoint() Point {
	var best Point
	bestV := math.Inf(-1)
	for _, p := range s.points {
		if p.V > bestV {
			best, bestV = p, p.V
		}
	}
	return best
}

// MovingAverage returns a new series where each point is the mean of the
// trailing window (window ≥ 1) ending at it. The series must be sorted.
func (s *Series) MovingAverage(window int) *Series {
	if window < 1 {
		window = 1
	}
	out := NewSeries()
	var sum float64
	for i, p := range s.points {
		sum += p.V
		if i >= window {
			sum -= s.points[i-window].V
		}
		n := window
		if i+1 < window {
			n = i + 1
		}
		out.Add(p.T, sum/float64(n))
	}
	return out
}

// HourlyPattern returns the mean value per local hour of day — the tool
// for verifying the 1 pm / 9 pm diurnal peaks. Hours with no samples hold
// NaN.
func (s *Series) HourlyPattern(loc *time.Location) [24]float64 {
	var sums, counts [24]float64
	for _, p := range s.points {
		h := p.T.In(loc).Hour()
		sums[h] += p.V
		counts[h]++
	}
	var out [24]float64
	for h := range out {
		if counts[h] == 0 {
			out[h] = math.NaN()
		} else {
			out[h] = sums[h] / counts[h]
		}
	}
	return out
}

// PeakHour returns the local hour with the highest mean value.
func (s *Series) PeakHour(loc *time.Location) int {
	pattern := s.HourlyPattern(loc)
	best, bestH := math.Inf(-1), -1
	for h, v := range pattern {
		if !math.IsNaN(v) && v > best {
			best, bestH = v, h
		}
	}
	return bestH
}

// WriteCSV writes "time,value" rows (RFC 3339 timestamps) with the given
// value-column name.
func (s *Series) WriteCSV(w io.Writer, name string) error {
	if _, err := fmt.Fprintf(w, "time,%s\n", name); err != nil {
		return err
	}
	for _, p := range s.points {
		if _, err := fmt.Fprintf(w, "%s,%g\n", p.T.Format(time.RFC3339), p.V); err != nil {
			return err
		}
	}
	return nil
}

// Mean returns the average of values, or 0 when empty.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
