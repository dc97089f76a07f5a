package cusum

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// referenceDetector is the bootstrap kernel the Detector ran before its
// exact rewrite (DESIGN.md §18), kept as the oracle the rewrite must
// match bit for bit: rand.Shuffle with a swap closure, the full
// maxCusumSplit (mean, range, argmax) on every shuffle, and all
// Bootstraps shuffles whatever the running count says.
type referenceDetector struct {
	cfg   Config
	rng   *rand.Rand
	cps   []int
	confs []float64

	// deferredRuns counts rejected bootstraps that a later bootstrap of
	// the same window followed — the windows whose early rejection
	// leaves draws owed to a sibling.
	deferredRuns int
	rejected     bool

	// last is the per-shuffle outcome (smaller than observed or not) of
	// the window's last bootstrap, over a segment of lastLen samples.
	last    []bool
	lastLen int
}

func referenceCandidates(cfg Config, xs []float64, seed int64) ([]Candidate, int) {
	r := referenceRun(cfg, xs, seed)
	return r.candidates(), r.deferredRuns
}

func referenceRun(cfg Config, xs []float64, seed int64) *referenceDetector {
	r := &referenceDetector{cfg: cfg.withDefaults(), rng: rand.New(rand.NewSource(seed))}
	work := xs
	if r.cfg.UseRanks {
		work = Ranks(xs)
	}
	r.segment(work, 0, len(work))
	return r
}

func (r *referenceDetector) candidates() []Candidate {
	out := make([]Candidate, len(r.cps))
	for i := range r.cps {
		out[i] = Candidate{Index: r.cps[i], Confidence: r.confs[i]}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out
}

func (r *referenceDetector) segment(xs []float64, lo, hi int) {
	n := hi - lo
	if n < 2*r.cfg.MinSegment {
		return
	}
	idx, diff := maxCusumSplit(xs[lo:hi])
	if idx < r.cfg.MinSegment || idx > n-r.cfg.MinSegment {
		idx, diff = maxCusumSplitBounded(xs[lo:hi], r.cfg.MinSegment)
		if idx < 0 {
			return
		}
	}
	conf := r.bootstrapConfidence(xs[lo:hi], diff)
	if conf < r.cfg.Confidence {
		return
	}
	r.cps = append(r.cps, lo+idx)
	r.confs = append(r.confs, conf)
	r.segment(xs, lo, lo+idx)
	r.segment(xs, lo+idx, hi)
}

func (r *referenceDetector) bootstrapConfidence(xs []float64, observed float64) float64 {
	if observed <= 0 {
		return 0
	}
	if r.rejected {
		r.deferredRuns++
	}
	shuf := append([]float64(nil), xs...)
	smaller := 0
	n := r.cfg.Bootstraps
	r.last, r.lastLen = r.last[:0], len(xs)
	for b := 0; b < n; b++ {
		r.rng.Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
		_, diff := maxCusumSplit(shuf)
		if diff < observed {
			smaller++
		}
		r.last = append(r.last, diff < observed)
	}
	conf := float64(smaller) / float64(n)
	r.rejected = conf < r.cfg.Confidence
	return conf
}

// oracleWindows builds detection windows of 8–288 samples in the shapes
// the campaign analysis sees: noise, one step, several plateaus, and
// tie-heavy constant runs (min-filtered RTTs repeat exactly).
func oracleWindows() map[string][]float64 {
	rng := rand.New(rand.NewSource(2024))
	out := make(map[string][]float64)
	for _, n := range []int{8, 13, 31, 48, 97, 288} {
		random := make([]float64, n)
		for i := range random {
			random[i] = 5 + rng.NormFloat64()
		}
		out[fmt.Sprintf("random-%d", n)] = random

		stepped := make([]float64, n)
		at := n/3 + rng.Intn(n/3+1)
		for i := range stepped {
			stepped[i] = 2 + 0.5*rng.NormFloat64()
			if i >= at {
				stepped[i] += 6
			}
		}
		out[fmt.Sprintf("stepped-%d", n)] = stepped

		plateaus := make([]float64, n)
		levels := []float64{3, 20, 4, 35, 3, 12}
		for i := range plateaus {
			plateaus[i] = levels[i*len(levels)/n] + 0.8*rng.NormFloat64()
		}
		out[fmt.Sprintf("plateaus-%d", n)] = plateaus

		ties := make([]float64, n)
		for i := range ties {
			ties[i] = float64(1 + (i*4/n)%2) // two constant runs per half
			if rng.Intn(5) == 0 {
				ties[i] = float64(rng.Intn(3))
			}
		}
		out[fmt.Sprintf("ties-%d", n)] = ties
	}
	// A short low blip then a long plateau: the left child of the first
	// split is rejected early while its right sibling still splits.
	blip := make([]float64, 0, 96)
	for i := 0; i < 96; i++ {
		v := 2 + 0.4*rng.NormFloat64()
		switch {
		case i >= 10 && i < 14:
			v += 1.5
		case i >= 40 && i < 70:
			v += 15
		}
		blip = append(blip, v)
	}
	out["rejected-left-then-right"] = blip
	return out
}

// TestBootstrapMatchesReferenceKernel pins the rewritten bootstrap —
// inlined shuffle, range-only CUSUM, hoisted rank mean, early rejection
// with deferred draws — to the reference kernel: every candidate index
// and every confidence bit, over window shapes × Bootstraps ×
// Confidence × MinSegment × rank/raw, with one detector reused across
// all windows of a configuration as the sweep uses it.
func TestBootstrapMatchesReferenceKernel(t *testing.T) {
	windows := oracleWindows()
	names := make([]string, 0, len(windows))
	for name := range windows {
		names = append(names, name)
	}
	sort.Strings(names)

	deferred := 0
	for _, boots := range []int{1, 7, 60, 100} {
		for _, conf := range []float64{0.5, 0.95, 0.99, 1} {
			for _, minSeg := range []int{2, 5} {
				for _, ranks := range []bool{true, false} {
					cfg := Config{Bootstraps: boots, Confidence: conf, MinSegment: minSeg, UseRanks: ranks}
					d := NewDetector(cfg)
					for k, name := range names {
						xs := windows[name]
						seed := int64(1000*boots + k)
						got := d.AppendCandidates(nil, xs, seed)
						want, runs := referenceCandidates(cfg, xs, seed)
						deferred += runs
						if !candidatesBitIdentical(got, want) {
							t.Fatalf("%s B=%d conf=%g minseg=%d ranks=%t:\n got  %v\n want %v",
								name, boots, conf, minSeg, ranks, got, want)
						}
					}
				}
			}
		}
	}
	if deferred == 0 {
		t.Fatal("no window ran a bootstrap after an early rejection; the deferred-draw path is untested")
	}
}

// TestEarlyRejectionStopsWhenHopeless pins where a bootstrap stops: at
// the first shuffle from which even an all-smaller remainder could not
// lift the ratio to Confidence — no earlier (that would change a
// verdict), no later (that would waste shuffles). Replaying the
// reference kernel's per-shuffle outcomes gives the expected stop for
// each window's last bootstrap, whose skipped draws the detector still
// owes when the window ends.
func TestEarlyRejectionStopsWhenHopeless(t *testing.T) {
	windows := oracleWindows()
	stops := 0
	for _, boots := range []int{1, 7, 60, 100} {
		for _, conf := range []float64{0.5, 0.95, 0.99, 1} {
			cfg := Config{Bootstraps: boots, Confidence: conf, UseRanks: true}
			d := NewDetector(cfg)
			for name, xs := range windows {
				d.AppendCandidates(nil, xs, int64(boots))
				ref := referenceRun(cfg, xs, int64(boots))
				var want []skippedDraws
				smaller := 0
				for b, hit := range ref.last {
					if float64(smaller+boots-b)/float64(boots) < conf {
						want = append(want, skippedDraws{n: ref.lastLen, shuffles: boots - b})
						break
					}
					if hit {
						smaller++
					}
				}
				stops += len(want)
				if fmt.Sprint(d.skipped) != fmt.Sprint(want) {
					t.Fatalf("%s B=%d conf=%g: skipped %v, want %v", name, boots, conf, d.skipped, want)
				}
			}
		}
	}
	if stops == 0 {
		t.Fatal("no window ended on an early-rejected bootstrap")
	}
}

// TestAcceptCountMatchesRatio pins acceptCount to the ratio test it
// replaces: a bootstrap with smaller hits is accepted exactly when
// smaller >= acceptCount.
func TestAcceptCountMatchesRatio(t *testing.T) {
	for _, n := range []int{1, 3, 7, 60, 100, 1000} {
		for _, conf := range []float64{1e-9, 0.5, 0.95, 0.99, 0.999, 1, 1.5} {
			need := acceptCount(n, conf)
			for k := 0; k <= n; k++ {
				if accepted := float64(k)/float64(n) >= conf; accepted != (k >= need) {
					t.Fatalf("n=%d conf=%g k=%d: ratio says %t, acceptCount=%d", n, conf, k, accepted, need)
				}
			}
		}
	}
}

func candidatesBitIdentical(a, b []Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || math.Float64bits(a[i].Confidence) != math.Float64bits(b[i].Confidence) {
			return false
		}
	}
	return true
}
