package timeseries

import (
	"math"
	"testing"
	"time"

	"afrixp/internal/simclock"
)

func newFilled(n int, fn func(i int) float64) *Series {
	s := NewRegular(0, 5*time.Minute, n)
	for i := 0; i < n; i++ {
		s.Set(i, fn(i))
	}
	return s
}

func TestNewRegularAllMissing(t *testing.T) {
	s := NewRegular(0, time.Minute, 10)
	if s.Len() != 10 || s.PresentCount() != 0 {
		t.Fatalf("len %d present %d", s.Len(), s.PresentCount())
	}
	if s.LossFraction() != 1 {
		t.Fatal("all-missing series has loss fraction 1")
	}
}

func TestIndexAndTimeAt(t *testing.T) {
	start := simclock.Date(2016, time.March, 1)
	s := NewRegular(start, 5*time.Minute, 288)
	if got := s.Index(start.Add(12 * time.Minute)); got != 2 {
		t.Fatalf("Index = %d", got)
	}
	if got := s.TimeAt(2); got != start.Add(10*time.Minute) {
		t.Fatalf("TimeAt = %v", got)
	}
	if s.Index(start.Add(-time.Minute)) != -1 {
		t.Fatal("before start must be -1")
	}
	if s.Index(start.Add(24*time.Hour)) != -1 {
		t.Fatal("past end must be -1")
	}
}

func TestSetAtAndAt(t *testing.T) {
	start := simclock.Date(2016, time.March, 1)
	s := NewRegular(start, 5*time.Minute, 12)
	s.SetAt(start.Add(17*time.Minute), 42)
	if got := s.At(start.Add(15 * time.Minute)); got != 42 {
		t.Fatalf("At = %v", got)
	}
	s.SetAt(start.Add(-time.Hour), 1) // silently ignored
	s.SetAt(start.Add(2*time.Hour), 1)
	if s.PresentCount() != 1 {
		t.Fatal("out-of-grid SetAt must be ignored")
	}
	if !IsMissing(s.At(start)) {
		t.Fatal("unset slot must be missing")
	}
}

func TestSlice(t *testing.T) {
	start := simclock.Date(2016, time.March, 1)
	s := newFilled(288, func(i int) float64 { return float64(i) })
	s.Start = start
	sub := s.Slice(start.Add(time.Hour), start.Add(2*time.Hour))
	if sub.Len() != 12 {
		t.Fatalf("slice len = %d", sub.Len())
	}
	if sub.Values[0] != 12 {
		t.Fatalf("slice start value = %v", sub.Values[0])
	}
	if sub.Start != start.Add(time.Hour) {
		t.Fatal("slice start time wrong")
	}
	// Degenerate and out-of-range slices are safe.
	if s.Slice(start.Add(100*time.Hour), start.Add(200*time.Hour)).Len() != 0 {
		t.Fatal("past-end slice should be empty")
	}
	if s.Slice(start.Add(2*time.Hour), start.Add(time.Hour)).Len() != 0 {
		t.Fatal("inverted slice should be empty")
	}
}

func TestAggregateMin(t *testing.T) {
	s := newFilled(12, func(i int) float64 { return float64(10 + i%6) })
	s.Set(3, Missing)
	agg := s.Aggregate(6, Min)
	if agg.Len() != 2 || agg.Step != 30*time.Minute {
		t.Fatalf("agg: len %d step %v", agg.Len(), agg.Step)
	}
	if agg.Values[0] != 10 || agg.Values[1] != 10 {
		t.Fatalf("agg values: %v", agg.Values)
	}
}

func TestAggregateAllMissingBin(t *testing.T) {
	s := NewRegular(0, 5*time.Minute, 12)
	s.Set(7, 5)
	agg := s.Aggregate(6, Min)
	if !IsMissing(agg.Values[0]) {
		t.Fatal("empty bin must stay missing")
	}
	if agg.Values[1] != 5 {
		t.Fatal("second bin should carry the sample")
	}
}

func TestQuantileAndMedian(t *testing.T) {
	vs := []float64{5, 1, 3, 2, 4}
	if Median(vs) != 3 {
		t.Fatalf("median = %v", Median(vs))
	}
	if Quantile(vs, 0) != 1 || Quantile(vs, 1) != 5 {
		t.Fatal("extreme quantiles wrong")
	}
	if got := Quantile(vs, 0.25); got != 2 {
		t.Fatalf("q25 = %v", got)
	}
	if !IsMissing(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile must be missing")
	}
	// Input must not be mutated.
	if vs[0] != 5 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestSummarize(t *testing.T) {
	s := newFilled(100, func(i int) float64 { return float64(i) })
	s.Set(50, Missing)
	st := s.Summarize()
	if st.N != 99 || st.Min != 0 || st.Max != 99 {
		t.Fatalf("stats: %+v", st)
	}
	if math.Abs(st.Mean-49.49) > 0.05 {
		t.Fatalf("mean = %v", st.Mean)
	}
	if st.Stddev <= 0 {
		t.Fatal("stddev must be positive")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	st := NewRegular(0, time.Minute, 5).Summarize()
	if st.N != 0 || !IsMissing(st.Mean) || !IsMissing(st.Min) {
		t.Fatalf("empty stats: %+v", st)
	}
}

func TestFoldDaily(t *testing.T) {
	// Three days of samples: value = hour of day. Folding by hour
	// should return the hour index per bin.
	start := simclock.Date(2016, time.March, 1)
	s := NewRegular(start, 5*time.Minute, 3*288)
	for i := 0; i < s.Len(); i++ {
		s.Set(i, math.Floor(s.TimeAt(i).HourOfDay()))
	}
	prof := s.FoldDaily(time.Hour, Mean)
	if len(prof) != 24 {
		t.Fatalf("profile bins = %d", len(prof))
	}
	for h, v := range prof {
		if v != float64(h) {
			t.Fatalf("bin %d = %v", h, v)
		}
	}
}

func TestFoldDailyPanicsOnBadBin(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRegular(0, time.Minute, 10).FoldDaily(7*time.Hour, Mean)
}

// SplitDays returns one sub-series per UTC day, keyed by day index
// since the simclock epoch. Days with no present samples are omitted.
// It is the day-split reference the chunked-backing tests compare
// against.
func (s *Series) SplitDays() map[int]*Series {
	out := make(map[int]*Series)
	perDay := int(24 * time.Hour / s.Step)
	if perDay == 0 {
		return out
	}
	for i := 0; i < s.Len(); {
		day := s.TimeAt(i).Day()
		// Collect slots in this day.
		j := i
		for j < s.Len() && s.TimeAt(j).Day() == day {
			j++
		}
		sub := s.window(i, j)
		if sub.PresentCount() > 0 {
			out[day] = &sub
		}
		i = j
	}
	return out
}

func TestSplitDays(t *testing.T) {
	start := simclock.Date(2016, time.March, 1)
	s := NewRegular(start, time.Hour, 72) // 3 days
	for i := 0; i < 72; i++ {
		s.Set(i, float64(i))
	}
	days := s.SplitDays()
	if len(days) != 3 {
		t.Fatalf("got %d days", len(days))
	}
	d0 := start.Day()
	if days[d0].Len() != 24 || days[d0].Values[0] != 0 {
		t.Fatalf("day 0: %+v", days[d0])
	}
	if days[d0+2].Values[0] != 48 {
		t.Fatal("day 2 should start at 48")
	}
}

func TestSplitDaysOmitsEmptyDays(t *testing.T) {
	start := simclock.Date(2016, time.March, 1)
	s := NewRegular(start, time.Hour, 48)
	s.Set(30, 1) // only day 1 has data
	days := s.SplitDays()
	if len(days) != 1 {
		t.Fatalf("got %d days, want 1", len(days))
	}
}

func TestMinMeanHelpers(t *testing.T) {
	if Min([]float64{3, 1, 2}) != 1 {
		t.Fatal("Min wrong")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
}
