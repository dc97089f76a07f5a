package analysis

import (
	"math/rand"
	"testing"
	"time"

	"afrixp/internal/levelshift"
	"afrixp/internal/simclock"
	"afrixp/internal/timeseries"
)

// summarizeVerdictDecoded is summarizeVerdict with each result's series
// decoded to a flat copy first, so a verdict over chunk-backed series
// renders its samples too and compares equal to its flat twin's.
func summarizeVerdictDecoded(v Verdict) string {
	for _, r := range []*levelshift.Result{&v.Far, &v.Near} {
		if r.Series != nil {
			var buf []float64
			flat := r.Series.Flat(&buf)
			r.Series = &flat
		}
	}
	return summarizeVerdict(v)
}

// compressLink returns the chunk-backed twin of a flat link.
func compressLink(ls LinkSeries) LinkSeries {
	return LinkSeries{Target: ls.Target, Far: timeseries.Compress(ls.Far), Near: timeseries.Compress(ls.Near)}
}

// synthStep is synth on an arbitrary grid step: the collector's
// 5-minute rounds go through the 30-minute min-filter aggregation,
// synth's 30-minute grid does not.
func synthStep(days int, step simclock.Duration, far, near func(simclock.Time) float64) LinkSeries {
	n := days * int(24*time.Hour/step)
	fs := timeseries.NewRegular(0, step, n)
	ns := timeseries.NewRegular(0, step, n)
	for i := 0; i < n; i++ {
		t := fs.TimeAt(i)
		fs.Set(i, far(t))
		ns.Set(i, near(t))
	}
	return LinkSeries{Near: ns, Far: fs}
}

// TestChunkedLinkMatchesFlatTwin pins the sweeper's decode-once path:
// a chunk-backed link gets bit-identical verdicts to its flat twin, on
// the 30-minute grid (no aggregation, results keep the input series),
// on the 5-minute collector grid (aggregated), and on a window view
// that starts mid-block.
func TestChunkedLinkMatchesFlatTwin(t *testing.T) {
	thresholds := []float64{5, 10, 15, 20}
	cfg := DefaultConfig()
	links := sweepLinkSeries(t)
	links["collector-5min"] = synthStep(9, 5*time.Minute, diurnalFn(2, 20, 9, 17, 0.5, 40), flatFn(1, 0.3, 41))
	lossy := synthStep(9, 5*time.Minute, diurnalFn(2, 20, 9, 17, 0.5, 42), flatFn(1, 0.3, 43))
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < lossy.Far.Len(); i++ {
		if rng.Float64() < 0.2 {
			lossy.Far.Set(i, timeseries.Missing)
		}
	}
	links["collector-5min-lossy"] = lossy

	sw := NewSweeper()
	for name, flat := range links {
		chunked := compressLink(flat)
		want := sw.AnalyzeLinkSweep(flat, cfg, thresholds)
		got := sw.AnalyzeLinkSweep(chunked, cfg, thresholds)
		for k := range thresholds {
			if a, b := summarizeVerdictDecoded(got[k]), summarizeVerdictDecoded(want[k]); a != b {
				t.Errorf("%s @ %g ms: chunked verdict diverges from flat\nchunked: %s\nflat:    %s",
					name, thresholds[k], a, b)
			}
		}
	}

	// A view starting 100 slots into the first block and ending inside
	// a later one: Flat must skip the leading slots and stop at the end.
	full := links["collector-5min-lossy"]
	from, to := full.Far.TimeAt(100), full.Far.TimeAt(full.Far.Len()-37)
	fw, nw := full.Far.Window(from, to), full.Near.Window(from, to)
	flatView := LinkSeries{Far: &fw, Near: &nw}
	chunked := compressLink(full)
	cfw, cnw := chunked.Far.Window(from, to), chunked.Near.Window(from, to)
	chunkedView := LinkSeries{Far: &cfw, Near: &cnw}
	want := sw.AnalyzeLinkSweep(flatView, cfg, thresholds)
	got := sw.AnalyzeLinkSweep(chunkedView, cfg, thresholds)
	for k := range thresholds {
		if a, b := summarizeVerdictDecoded(got[k]), summarizeVerdictDecoded(want[k]); a != b {
			t.Errorf("mid-block view @ %g ms: chunked verdict diverges from flat\nchunked: %s\nflat:    %s",
				thresholds[k], a, b)
		}
	}
}

// TestSweeperVerdictsSurviveNextLink pins that nothing a verdict keeps
// aliases the sweeper's decode buffers: verdicts from link A, rendered
// right after A's sweep, render the same after the same Sweeper has
// decoded and analyzed a different link B of equal length into those
// buffers. The 30-minute grid skips aggregation, so each Result.Series
// is the input series itself — exactly where a decode-buffer view would
// leak.
func TestSweeperVerdictsSurviveNextLink(t *testing.T) {
	thresholds := []float64{5, 10, 15, 20}
	cfg := DefaultConfig()
	links := sweepLinkSeries(t)
	a := compressLink(links["diurnal-congested"])
	b := compressLink(synth(21, flatFn(7, 0.4, 50), diurnalFn(3, 9, 2, 6, 0.5, 51)))

	sw := NewSweeper()
	kept := sw.AnalyzeLinkSweep(a, cfg, thresholds)
	before := make([]string, len(kept))
	for k, v := range kept {
		before[k] = summarizeVerdictDecoded(v)
	}
	sw.AnalyzeLinkSweep(b, cfg, thresholds)
	for k, v := range kept {
		if after := summarizeVerdictDecoded(v); after != before[k] {
			t.Errorf("@ %g ms: link A's verdict changed after the sweeper analyzed link B\nbefore: %s\nafter:  %s",
				thresholds[k], before[k], after)
		}
	}
}
