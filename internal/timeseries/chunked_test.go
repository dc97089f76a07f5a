package timeseries

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"afrixp/internal/simclock"
)

// randomSeries builds a flat series shaped like collector output: a
// regular grid with missing runs, repeated floors, and moving values.
func randomSeries(rng *rand.Rand) *Series {
	n := rng.Intn(1200) // spans several 256-slot blocks at the top end
	s := NewRegular(simclock.Time(rng.Intn(10_000))*simclock.Time(time.Second), 30*time.Minute, n)
	floor := 1 + rng.Float64()*50
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0: // missing (already NaN)
		case 1:
			s.Values[i] = floor
		default:
			s.Values[i] = floor + rng.Float64()*100
		}
	}
	return s
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func bitsSliceEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bitsEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestChunkedMatchesFlat is the property-test satellite: every
// statistic on a chunk-backed series must match the flat
// implementation bit for bit.
func TestChunkedMatchesFlat(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		flat := randomSeries(rng)
		ch := Compress(flat)
		if !ch.Chunked() || ch.Len() != flat.Len() {
			return false
		}

		for i := 0; i < flat.Len(); i++ {
			if !bitsEqual(flat.ValueAt(i), ch.ValueAt(i)) {
				t.Logf("ValueAt(%d) differs", i)
				return false
			}
		}
		if flat.PresentCount() != ch.PresentCount() ||
			!bitsEqual(flat.LossFraction(), ch.LossFraction()) ||
			flat.LastPresentIndex() != ch.LastPresentIndex() {
			t.Logf("presence accounting differs")
			return false
		}
		if !bitsSliceEqual(flat.Present(), ch.Present()) {
			t.Logf("Present differs")
			return false
		}

		fa, ca := flat.Aggregate(6, Min), ch.Aggregate(6, Min)
		if fa.Start != ca.Start || fa.Step != ca.Step || !bitsSliceEqual(fa.Values, ca.Values) {
			t.Logf("Aggregate differs")
			return false
		}

		if flat.Len() > 0 {
			ff := flat.FoldDaily(30*time.Minute, Mean)
			cf := ch.FoldDaily(30*time.Minute, Mean)
			if !bitsSliceEqual(ff, cf) {
				t.Logf("FoldDaily differs")
				return false
			}
		}

		fs, cs := flat.Summarize(), ch.Summarize()
		if fs.N != cs.N || !bitsEqual(fs.Min, cs.Min) || !bitsEqual(fs.Max, cs.Max) ||
			!bitsEqual(fs.Mean, cs.Mean) || !bitsEqual(fs.Median, cs.Median) ||
			!bitsEqual(fs.P5, cs.P5) || !bitsEqual(fs.P95, cs.P95) ||
			!bitsEqual(fs.Stddev, cs.Stddev) {
			t.Logf("Summarize differs: %+v vs %+v", fs, cs)
			return false
		}

		// Windowing shares the chunk; a misaligned sub-view exercises
		// the partial-block paths in Each.
		if flat.Len() > 3 {
			from := flat.TimeAt(flat.Len() / 3)
			to := flat.TimeAt(2 * flat.Len() / 3)
			fw, cw := flat.Slice(from, to), ch.Slice(from, to)
			if fw.Len() != cw.Len() {
				t.Logf("Slice length differs")
				return false
			}
			if !bitsSliceEqual(fw.Present(), cw.Present()) {
				t.Logf("sliced Present differs")
				return false
			}
			if fw.Len() > 0 {
				if !bitsSliceEqual(fw.FoldDaily(30*time.Minute, Mean), cw.FoldDaily(30*time.Minute, Mean)) {
					t.Logf("sliced FoldDaily differs")
					return false
				}
			}
		}

		// SplitDays must agree on day keys and per-day presence.
		fd, cd := flat.SplitDays(), ch.SplitDays()
		if len(fd) != len(cd) {
			t.Logf("SplitDays size differs")
			return false
		}
		for day, sub := range fd {
			csub, ok := cd[day]
			if !ok || !bitsSliceEqual(sub.Present(), csub.Present()) {
				t.Logf("SplitDays day %d differs", day)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSummarizeSingleSortMatchesLegacy pins the Summarize rewrite
// against the definitionally-correct per-quantile clone+sort.
func TestSummarizeSingleSortMatchesLegacy(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSeries(rng)
		st := s.Summarize()
		vs := s.Present()
		if st.N != len(vs) {
			return false
		}
		if len(vs) == 0 {
			return math.IsNaN(st.Median)
		}
		return bitsEqual(st.Median, Quantile(vs, 0.5)) &&
			bitsEqual(st.P5, Quantile(vs, 0.05)) &&
			bitsEqual(st.P95, Quantile(vs, 0.95))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuantileSortedMatchesQuantile pins the sorted fast path.
func TestQuantileSortedMatchesQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(40)
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = rng.NormFloat64() * 100
		}
		sorted := append([]float64(nil), vs...)
		sort.Float64s(sorted)
		for _, q := range []float64{-1, 0, 0.05, 0.1, 0.5, 0.95, 1, 2} {
			if !bitsEqual(Quantile(vs, q), QuantileSorted(sorted, q)) {
				t.Fatalf("trial %d q=%v: Quantile %v != QuantileSorted %v",
					trial, q, Quantile(vs, q), QuantileSorted(sorted, q))
			}
		}
	}
}

func TestChunkedSeriesIsImmutable(t *testing.T) {
	s := Compress(NewRegular(0, 5*time.Minute, 10))
	defer func() {
		if recover() == nil {
			t.Fatal("Set on chunked series did not panic")
		}
	}()
	s.Set(0, 1)
}

// TestFlatDecodesViews pins Flat: a chunk-backed series or any window
// of it (starting and ending mid-block included) decodes to exactly its
// flat twin's slots, reusing one buffer across calls; a flat series
// comes back as itself.
func TestFlatDecodesViews(t *testing.T) {
	var buf []float64
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		flat := randomSeries(rng)
		if same := flat.Flat(&buf); len(flat.Values) > 0 && &same.Values[0] != &flat.Values[0] {
			return false
		}
		ch := Compress(flat)
		lo := 0
		if flat.Len() > 0 {
			lo = rng.Intn(flat.Len())
		}
		hi := lo + rng.Intn(flat.Len()-lo+1)
		for _, v := range [][2]int{{0, flat.Len()}, {lo, hi}} {
			want, view := flat.window(v[0], v[1]), ch.window(v[0], v[1])
			got := view.Flat(&buf)
			if got.Chunked() || got.Start != want.Start || got.Step != want.Step ||
				!bitsSliceEqual(got.Values, want.Values) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
