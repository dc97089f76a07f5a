// Package cusum implements Taylor-style change-point analysis: the
// cumulative-sum chart with bootstrap significance testing, applied
// recursively to segment a series into constant-level regions. The
// paper's level-shift detector "identifies changes in the direction of
// the rank-based non-parametric statistical cumulative sum (CUSUM)
// test as evidence of a level-shift" [Taylor 2000]; ranks make the
// test robust to the heavy-tailed RTT outliers ICMP measurement is
// full of.
package cusum

import (
	"math/rand"
	"sort"
)

// Config tunes the detector.
type Config struct {
	// Bootstraps is the number of shuffles per significance test.
	// Default 100.
	Bootstraps int
	// Confidence in (0,1) required to accept a change point.
	// Default 0.95.
	Confidence float64
	// MinSegment is the minimum number of samples on each side of a
	// change point. Default 2.
	MinSegment int
	// UseRanks switches to the rank-based (non-parametric) variant
	// the paper uses. Default is true in Detect; DetectRaw keeps raw
	// values.
	UseRanks bool
	// MinMagnitude, when positive, drops change points whose level
	// change (in original units) is smaller — the paper's magnitude
	// threshold that suppresses detections caused by measurement
	// noise. Weakest-first removal re-merges the adjacent segments.
	MinMagnitude float64
	// Seed makes the bootstrap deterministic.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Bootstraps <= 0 {
		c.Bootstraps = 100
	}
	if c.Confidence <= 0 {
		c.Confidence = 0.95
	}
	if c.MinSegment < 2 {
		c.MinSegment = 2
	}
	return c
}

// ChangePoint is a detected shift between two constant-level segments.
type ChangePoint struct {
	// Index is the first sample of the new level.
	Index int
	// Confidence is the bootstrap confidence of the detection.
	Confidence float64
	// Before and After are the mean levels (of the original values,
	// not the ranks) on each side, over the local segments.
	Before, After float64
}

// Candidate is a change point accepted by the bootstrap significance
// test but not yet filtered by MinMagnitude. Candidates depend only on
// the series, the detector configuration, and the seed — never on the
// magnitude threshold — which is what lets a threshold sweep detect
// once and filter many times (ApplyMagnitude).
type Candidate struct {
	// Index is the first sample of the new level.
	Index int
	// Confidence is the bootstrap confidence of the detection.
	Confidence float64
}

// Magnitude returns the signed level change.
func (cp ChangePoint) Magnitude() float64 { return cp.After - cp.Before }

// Detect runs rank-based recursive change-point detection over xs and
// returns the accepted change points in index order.
func Detect(xs []float64, cfg Config) []ChangePoint {
	cfg = cfg.withDefaults()
	cfg.UseRanks = true
	return NewDetector(cfg).Detect(xs, cfg.Seed)
}

// DetectRaw runs the same analysis on raw values (no rank transform).
func DetectRaw(xs []float64, cfg Config) []ChangePoint {
	cfg = cfg.withDefaults()
	cfg.UseRanks = false
	return NewDetector(cfg).Detect(xs, cfg.Seed)
}

// Detector runs repeated change-point detections with one set of
// reusable scratch buffers (rank transform, bootstrap shuffle copy,
// candidate lists). The level-shift analyzer threads one detector
// through every detection window of every link a sweep worker
// analyzes (windows × link ends, never × thresholds) — reusing the
// scratch removes the dominant allocation cost of a campaign's
// analysis phase. Results are bit-identical to the package-level
// Detect/DetectRaw: reseeding a rand.Rand produces the same stream as
// constructing it from the same seed, and every buffer is fully
// overwritten per call.
//
// A Detector is not safe for concurrent use; fan-out callers create one
// per goroutine.
type Detector struct {
	cfg  Config
	need int // least k with float64(k)/float64(Bootstraps) >= Confidence
	rng  *rand.Rand

	ranks   []float64
	rankIdx []int
	shuf    []float64
	cps     []int
	confs   []float64
	order   []int
	skipped []skippedDraws
}

// skippedDraws records shuffles an early-rejected bootstrap never ran:
// shuffles Fisher–Yates passes over a segment of n samples. Their
// random draws are owed to the rest of the window (see
// bootstrapConfidence).
type skippedDraws struct{ n, shuffles int }

// NewDetector builds a reusable detector. cfg.Seed is ignored — each
// Detect call takes its own seed.
func NewDetector(cfg Config) *Detector {
	d := &Detector{rng: rand.New(rand.NewSource(0))}
	d.Reconfigure(cfg)
	return d
}

// Reconfigure swaps the detector's configuration while keeping its
// scratch buffers — fan-out callers thread one detector per worker
// across many analyses whose configs may differ.
func (d *Detector) Reconfigure(cfg Config) {
	d.cfg = cfg.withDefaults()
	d.need = acceptCount(d.cfg.Bootstraps, d.cfg.Confidence)
}

// acceptCount returns the least k in [0, n] with
// float64(k)/float64(n) >= conf — the number of smaller shuffles a
// bootstrap of n shuffles needs to be accepted — or n+1 when no k
// qualifies. The float comparison is the one segment applies, so
// "smaller >= acceptCount" and "confidence >= conf" agree exactly.
func acceptCount(n int, conf float64) int {
	k := 0
	for k <= n && float64(k)/float64(n) < conf {
		k++
	}
	return k
}

// Detect runs the recursive change-point analysis over xs with the
// given bootstrap seed, honoring cfg.UseRanks as configured. The
// returned slice is freshly allocated (safe to retain); everything else
// comes from scratch buffers. Detect is exactly Candidates followed by
// ApplyMagnitude at cfg.MinMagnitude.
func (d *Detector) Detect(xs []float64, seed int64) []ChangePoint {
	return ApplyMagnitude(xs, d.Candidates(xs, seed), d.cfg.MinMagnitude)
}

// Candidates runs the expensive, threshold-independent phase —
// segmentation plus bootstrap significance — and returns the accepted
// candidates sorted by index. cfg.MinMagnitude is deliberately ignored:
// the caller filters with ApplyMagnitude, once per magnitude threshold,
// over one shared candidate list. The returned slice is freshly
// allocated (safe to retain across further Candidates calls).
func (d *Detector) Candidates(xs []float64, seed int64) []Candidate {
	return d.AppendCandidates(nil, xs, seed)
}

// AppendCandidates is Candidates appending into dst — the arena
// variant for sweep callers that batch every detection window's
// candidates into one reusable buffer instead of one allocation per
// window.
func (d *Detector) AppendCandidates(dst []Candidate, xs []float64, seed int64) []Candidate {
	work := xs
	if d.cfg.UseRanks {
		work = d.ranksInto(xs)
	}
	d.rng.Seed(seed)
	d.skipped = d.skipped[:0] // the reseed forgives draws owed by the last window
	d.cps = d.cps[:0]
	d.confs = d.confs[:0]
	d.segment(work, 0, len(work))

	d.order = d.order[:0]
	for i := range d.cps {
		d.order = append(d.order, i)
	}
	sort.Slice(d.order, func(a, b int) bool { return d.cps[d.order[a]] < d.cps[d.order[b]] })

	for _, oi := range d.order {
		dst = append(dst, Candidate{Index: d.cps[oi], Confidence: d.confs[oi]})
	}
	return dst
}

// ApplyMagnitude is the cheap per-threshold phase: it removes, weakest
// first, candidates whose level change across adjacent segments falls
// below minMag (re-merging the segments after each removal) and
// materializes the survivors as ChangePoints with Before/After levels
// under the final segmentation. Pure — the same candidate list can be
// filtered at any number of thresholds. cands must be sorted by Index
// (as Candidates returns them).
func ApplyMagnitude(xs []float64, cands []Candidate, minMag float64) []ChangePoint {
	out, _ := ApplyMagnitudeInto(nil, nil, xs, cands, minMag)
	return out
}

// ApplyMagnitudeInto is ApplyMagnitude appending survivors into dst,
// with keptBuf as reusable index scratch. It returns the appended
// slice and the (possibly grown) scratch for the next call. The sweep
// analyzer filters the same candidates at several thresholds per link;
// threading one dst/keptBuf pair through removes two allocations per
// (window, threshold) pair.
func ApplyMagnitudeInto(dst []ChangePoint, keptBuf []int, xs []float64, cands []Candidate, minMag float64) ([]ChangePoint, []int) {
	kept := keptBuf[:0]
	for _, c := range cands {
		kept = append(kept, c.Index)
	}
	if minMag > 0 {
		for len(kept) > 0 {
			// Compute each kept point's magnitude under current segmentation.
			weakest, weakestMag := -1, minMag
			for k, idx := range kept {
				lo := 0
				if k > 0 {
					lo = kept[k-1]
				}
				hi := len(xs)
				if k+1 < len(kept) {
					hi = kept[k+1]
				}
				mag := abs(mean(xs[idx:hi]) - mean(xs[lo:idx]))
				if mag < weakestMag {
					weakest, weakestMag = k, mag
				}
			}
			if weakest < 0 {
				break
			}
			kept = append(kept[:weakest], kept[weakest+1:]...)
		}
	}

	prev := 0
	for k, idx := range kept {
		next := len(xs)
		if k+1 < len(kept) {
			next = kept[k+1]
		}
		dst = append(dst, ChangePoint{
			Index:      idx,
			Confidence: confAt(cands, idx),
			Before:     mean(xs[prev:idx]),
			After:      mean(xs[idx:next]),
		})
		prev = idx
	}
	return dst, kept
}

// confAt looks up the bootstrap confidence recorded for index idx in
// the pre-filter candidate list (sorted by index).
func confAt(cands []Candidate, idx int) float64 {
	k := sort.Search(len(cands), func(i int) bool { return cands[i].Index >= idx })
	if k < len(cands) && cands[k].Index == idx {
		return cands[k].Confidence
	}
	return 0
}

// ranksInto is Ranks writing into the detector's scratch buffers.
func (d *Detector) ranksInto(xs []float64) []float64 {
	n := len(xs)
	if cap(d.rankIdx) < n {
		d.rankIdx = make([]int, n)
		d.ranks = make([]float64, n)
	}
	rankInto(xs, d.rankIdx[:n], d.ranks[:n])
	return d.ranks[:n]
}

// segment recursively tests [lo,hi) for a change point.
func (d *Detector) segment(xs []float64, lo, hi int) {
	n := hi - lo
	if n < 2*d.cfg.MinSegment {
		return
	}
	idx, diff := maxCusumSplit(xs[lo:hi])
	if idx < d.cfg.MinSegment || idx > n-d.cfg.MinSegment {
		// Re-clamp: pick the best split within the allowed band.
		idx, diff = maxCusumSplitBounded(xs[lo:hi], d.cfg.MinSegment)
		if idx < 0 {
			return
		}
	}
	conf := d.bootstrapConfidence(xs[lo:hi], diff)
	if conf < d.cfg.Confidence {
		return
	}
	d.cps = append(d.cps, lo+idx)
	d.confs = append(d.confs, conf)
	d.segment(xs, lo, lo+idx)
	d.segment(xs, lo+idx, hi)
}

// maxCusumSplit computes the CUSUM chart of xs and returns the index
// after the extreme excursion (the estimated change point) plus the
// chart range Smax−Smin (the detection statistic).
func maxCusumSplit(xs []float64) (int, float64) {
	m := mean(xs)
	var s, smax, smin float64
	argExt := 0
	absExt := 0.0
	for i, x := range xs {
		s += x - m
		if s > smax {
			smax = s
		}
		if s < smin {
			smin = s
		}
		if a := abs(s); a > absExt {
			absExt = a
			argExt = i
		}
	}
	return argExt + 1, smax - smin
}

// maxCusumSplitBounded restricts the split to [minSeg, n-minSeg].
func maxCusumSplitBounded(xs []float64, minSeg int) (int, float64) {
	m := mean(xs)
	var s, smax, smin float64
	argExt, absExt := -1, -1.0
	for i, x := range xs {
		s += x - m
		if s > smax {
			smax = s
		}
		if s < smin {
			smin = s
		}
		split := i + 1
		if split >= minSeg && split <= len(xs)-minSeg {
			if a := abs(s); a > absExt {
				absExt = a
				argExt = split
			}
		}
	}
	if argExt < 0 {
		return -1, 0
	}
	return argExt, smax - smin
}

// cusumRange returns the CUSUM chart range Smax−Smin of xs around the
// mean m — maxCusumSplit's detection statistic without the argmax,
// accumulated in the same order so the result is bit-identical.
func cusumRange(xs []float64, m float64) float64 {
	var s, smax, smin float64
	for _, x := range xs {
		s += x - m
		if s > smax {
			smax = s
		}
		if s < smin {
			smin = s
		}
	}
	return smax - smin
}

// bootstrapConfidence estimates how often a random reordering of xs
// produces a smaller CUSUM range than observed — the analysis phase's
// hot spot (DESIGN.md §18). Each step below keeps the result bit-equal
// to running all shuffles through rand.Shuffle and maxCusumSplit (the
// reference kernel in oracle_test.go):
//
//   - the inlined Fisher–Yates makes the same Uint32 draws as
//     rand.Shuffle, so every shuffle is the same permutation;
//   - a shuffle needs only the chart range, and in rank mode the mean
//     is computed once: half-integer ranks sum exactly in any order;
//   - a segment stops as soon as the shuffles left cannot lift it to
//     cfg.Confidence. The caller rejects it either way, so the returned
//     ratio is only known to be below the bar. The skipped shuffles'
//     draws are recorded and made (without swapping) before the next
//     bootstrap of the same window; the next window's reseed drops
//     them.
func (d *Detector) bootstrapConfidence(xs []float64, observed float64) float64 {
	if observed <= 0 {
		return 0
	}
	d.drawSkipped()
	shuf := append(d.shuf[:0], xs...)
	d.shuf = shuf
	n := d.cfg.Bootstraps
	m := mean(shuf)
	smaller := 0
	for b := 0; b < n; b++ {
		if smaller+n-b < d.need {
			d.skipped = append(d.skipped, skippedDraws{n: len(shuf), shuffles: n - b})
			break
		}
		for i := len(shuf) - 1; i > 0; i-- {
			j := d.uint32n(uint32(i + 1))
			shuf[i], shuf[j] = shuf[j], shuf[i]
		}
		if !d.cfg.UseRanks {
			m = mean(shuf) // raw sums are order-dependent
		}
		if cusumRange(shuf, m) < observed {
			smaller++
		}
	}
	return float64(smaller) / float64(n)
}

// drawSkipped makes the random draws of every shuffle an early
// rejection skipped, in the order they were skipped, so the next
// bootstrap sees the stream the full shuffles would have left.
func (d *Detector) drawSkipped() {
	for _, sk := range d.skipped {
		for b := 0; b < sk.shuffles; b++ {
			for i := sk.n - 1; i > 0; i-- {
				d.uint32n(uint32(i + 1))
			}
		}
	}
	d.skipped = d.skipped[:0]
}

// uint32n returns a uniform draw in [0, n) for 0 < n < 2³¹, consuming
// exactly the Uint32 draws math/rand's Shuffle makes for the same
// bound: Lemire's multiply-shift with rejection, rand.(*Rand).int31n.
func (d *Detector) uint32n(n uint32) uint32 {
	prod := uint64(d.rng.Uint32()) * uint64(n)
	if low := uint32(prod); low < n {
		thresh := -n % n
		for low < thresh {
			prod = uint64(d.rng.Uint32()) * uint64(n)
			low = uint32(prod)
		}
	}
	return uint32(prod >> 32)
}

// Ranks replaces each value by its (average-tie) rank, the
// non-parametric transform of the paper's detector.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	out := make([]float64, n)
	rankInto(xs, make([]int, n), out)
	return out
}

// rankInto writes each value's (average-tie) rank into out, using idx
// as sort scratch. Both Ranks and the detector's scratch-buffer variant
// funnel through here; len(idx) and len(out) must equal len(xs).
func rankInto(xs []float64, idx []int, out []float64) {
	n := len(xs)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
