package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

var _t0 = time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC)

func seriesOf(vals ...float64) *Series {
	s := NewSeries()
	for i, v := range vals {
		s.Add(_t0.Add(time.Duration(i)*time.Hour), v)
	}
	return s
}

func TestSeriesBasicStats(t *testing.T) {
	s := seriesOf(2, 4, 6, 8)
	if m := s.Mean(); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := s.Min(); v != 2 {
		t.Errorf("Min = %v, want 2", v)
	}
	if v := s.Max(); v != 8 {
		t.Errorf("Max = %v, want 8", v)
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4", s.Len())
	}
	if p := s.MaxPoint(); p.V != 8 || !p.T.Equal(_t0.Add(3*time.Hour)) {
		t.Errorf("MaxPoint = %+v", p)
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := NewSeries()
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Error("empty-series stats not zero")
	}
}

func TestSeriesSort(t *testing.T) {
	s := NewSeries()
	s.Add(_t0.Add(2*time.Hour), 3)
	s.Add(_t0, 1)
	s.Add(_t0.Add(time.Hour), 2)
	s.Sort()
	for i := 0; i < s.Len(); i++ {
		if s.At(i).V != float64(i+1) {
			t.Fatalf("sorted values wrong at %d: %v", i, s.At(i).V)
		}
	}
}

func TestMovingAverage(t *testing.T) {
	s := seriesOf(1, 2, 3, 4, 5)
	ma := s.MovingAverage(3)
	want := []float64{1, 1.5, 2, 3, 4}
	for i := range want {
		if got := ma.At(i).V; math.Abs(got-want[i]) > 1e-12 {
			t.Errorf("MA[%d] = %v, want %v", i, got, want[i])
		}
	}
	if ma0 := s.MovingAverage(0); ma0.At(2).V != 3 {
		t.Error("window<1 not clamped to 1")
	}
}

func TestHourlyPatternAndPeakHour(t *testing.T) {
	s := NewSeries()
	// Two days of hourly samples peaking at hour 21.
	for d := 0; d < 2; d++ {
		for h := 0; h < 24; h++ {
			v := 10.0
			if h == 21 {
				v = 100
			}
			s.Add(_t0.AddDate(0, 0, d).Add(time.Duration(h)*time.Hour), v)
		}
	}
	if ph := s.PeakHour(time.UTC); ph != 21 {
		t.Errorf("PeakHour = %d, want 21", ph)
	}
	pattern := s.HourlyPattern(time.UTC)
	if pattern[21] != 100 || pattern[3] != 10 {
		t.Errorf("pattern[21]=%v pattern[3]=%v", pattern[21], pattern[3])
	}
}

func TestHourlyPatternNaNForEmptyHours(t *testing.T) {
	s := NewSeries()
	s.Add(_t0.Add(5*time.Hour), 1)
	pattern := s.HourlyPattern(time.UTC)
	if !math.IsNaN(pattern[6]) {
		t.Error("hour with no samples should be NaN")
	}
}

func TestWriteCSV(t *testing.T) {
	s := seriesOf(1.5, 2.5)
	var sb strings.Builder
	if err := s.WriteCSV(&sb, "peers"); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "time,peers\n") {
		t.Errorf("missing header: %q", out)
	}
	if !strings.Contains(out, "2006-10-01T00:00:00Z,1.5") {
		t.Errorf("missing row: %q", out)
	}
	if lines := strings.Count(out, "\n"); lines != 3 {
		t.Errorf("line count = %d, want 3", lines)
	}
}

func TestMeanHelper(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("Mean = %v, want 2", m)
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
}
