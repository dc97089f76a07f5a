package experiments

import (
	"testing"
	"time"

	"afrixp/internal/budget"
	"afrixp/internal/scenario"
	"afrixp/internal/simclock"
)

// runBudgetCampaign is the 4-day short campaign with the probe-budget
// scheduler installed. The tight recompute cadence gives the 4-day
// window plenty of barrier recomputes.
func runBudgetCampaign(workers, batchSteps int, frac float64, seed uint64) *Result {
	return Run(Config{
		Opts: scenario.Options{Seed: 5, Scale: 0.1},
		Campaign: simclock.Interval{
			Start: simclock.Date(2016, time.July, 20),
			End:   simclock.Date(2016, time.July, 24),
		},
		Workers:    workers,
		BatchSteps: batchSteps,
		Budget:     &budget.Config{Fraction: frac, Seed: seed},
	})
}

// TestBudgetCampaignBitIdentical is the scheduler's load-bearing
// invariant: per (budget, seed), a budgeted campaign is IEEE-bit-
// identical for any Workers × BatchSteps — utility ranking, rate
// assignment, and the skip schedule depend only on virtual time and
// the collected series, never on worker interleaving or batch edges.
func TestBudgetCampaignBitIdentical(t *testing.T) {
	perStep := runBudgetCampaign(1, 1, 0.5, 7)

	// Non-vacuity: the budget must actually have withheld probes.
	rounds, skipped := perStep.ProbeSpend()
	if skipped == 0 {
		t.Fatal("budget=0.5 campaign skipped no rounds; bit-identity check is vacuous")
	}
	if rounds == 0 {
		t.Fatal("budget=0.5 campaign attempted no rounds")
	}

	want := summarizeResult(perStep)
	for _, cse := range []struct {
		workers, batchSteps int
	}{{1, 4096}, {8, 1}, {8, 4096}} {
		got := summarizeResult(runBudgetCampaign(cse.workers, cse.batchSteps, 0.5, 7))
		if want != got {
			t.Errorf("budgeted results differ: workers=%d batchSteps=%d vs workers=1 batchSteps=1\n%s",
				cse.workers, cse.batchSteps, firstDiff(want, got))
		}
	}

	// Re-run from the same (budget, seed): bit-identical too.
	if got := summarizeResult(runBudgetCampaign(1, 1, 0.5, 7)); want != got {
		t.Errorf("same (budget, seed) re-run diverged\n%s", firstDiff(want, got))
	}

	// A different budget seed reschedules probes: results must differ
	// (otherwise the seed plumbing is dead).
	if got := summarizeResult(runBudgetCampaign(1, 1, 0.5, 8)); want == got {
		t.Error("different budget seed produced identical results; seed not wired through")
	}
}

// TestBudgetAwkwardBatchSizesBitIdentical sweeps batch sizes that
// misalign with the recompute cadence, so recompute barriers fall
// mid-batch-plan and must still break batches deterministically.
func TestBudgetAwkwardBatchSizesBitIdentical(t *testing.T) {
	want := summarizeResult(runBudgetCampaign(2, 1, 0.25, 3))
	for _, bs := range []int{7, 97} {
		if got := summarizeResult(runBudgetCampaign(2, bs, 0.25, 3)); want != got {
			t.Errorf("budgeted BatchSteps=%d diverges from per-step results\n%s", bs, firstDiff(want, got))
		}
	}
}

// TestBudgetReducesProbes pins the spend side: a 50% budget must send
// at most 55% of the full-rate rounds (5 points of slack for the
// full-rate exploration window before the first recompute), and lower
// budgets must send monotonically less.
func TestBudgetReducesProbes(t *testing.T) {
	full := runShortCampaignCfg(2, 0, false)
	fullRounds, _ := full.ProbeSpend()
	// Every link runs at full rate until the first recompute barrier
	// (the exploration window: 6 h of this 96 h campaign), so the
	// achievable spend is frac outside that window plus full rate
	// inside it — negligible over 13 months, visible over 4 days.
	explore := 6.0 / 96.0
	prev := fullRounds + 1
	for _, frac := range []float64{0.5, 0.25, 0.1} {
		res := runBudgetCampaign(2, 0, frac, 7)
		rounds, skipped := res.ProbeSpend()
		if skipped == 0 {
			t.Fatalf("budget=%.2f skipped no rounds", frac)
		}
		bound := frac*(1-explore) + explore + 0.02
		if got := float64(rounds) / float64(fullRounds); got > bound {
			t.Errorf("budget=%.2f sent %.3f of full-rate rounds; want ≤ %.3f", frac, got, bound)
		}
		if rounds >= prev {
			t.Errorf("budget=%.2f sent %d rounds, not less than the next-larger budget's %d", frac, rounds, prev)
		}
		prev = rounds
	}
}

// TestFullBudgetCampaignMatchesUnscheduled pins the Fraction ≥ 1
// contract end to end: installing the scheduler at a full budget (or
// any over-budget fraction, which clamps to 1) must reproduce the
// unscheduled campaign bit for bit and skip nothing — the scheduler
// runs, folds windows, and counts recomputes, but every link stays at
// period 1.
func TestFullBudgetCampaignMatchesUnscheduled(t *testing.T) {
	plain := Run(Config{
		Opts:     scenario.Options{Seed: 5, Scale: 0.1},
		Campaign: ckptInterval,
		Workers:  8,
	})
	want := summarizeResult(plain)
	rounds, _ := plain.ProbeSpend()
	if rounds == 0 {
		t.Fatal("unscheduled campaign attempted no rounds; parity check is vacuous")
	}

	for _, frac := range []float64{1, 100} {
		res := runBudgetCampaign(8, 0, frac, 7)
		if got := summarizeResult(res); got != want {
			t.Errorf("budget=%g campaign diverges from the unscheduled run\n%s",
				frac, firstDiff(want, got))
		}
		if _, skipped := res.ProbeSpend(); skipped != 0 {
			t.Errorf("budget=%g skipped %d rounds; a full budget must skip none", frac, skipped)
		}
		for _, y := range res.Yields() {
			if y.Skipped != 0 {
				t.Errorf("budget=%g: VP %s shows %d skipped rounds in the yield accounting", frac, y.VP, y.Skipped)
			}
		}
	}
}

// TestBudgetSweepRecall runs the budget experiment over a window
// centered on the case-study congestion (QCELL-NETPAGE congested from
// late February, GIXA-GHANATEL from early March) and pins the
// headline trade-off: at a 50% budget, ground-truth recall stays at
// ≥95% of the full-rate campaign's.
func TestBudgetSweepRecall(t *testing.T) {
	base := Config{
		Opts: scenario.Options{Seed: 3, Scale: 0.12},
		Campaign: simclock.Interval{
			Start: simclock.Date(2016, time.March, 1),
			End:   simclock.Date(2016, time.March, 15),
		},
		DisableLoss: true,
		Budget:      &budget.Config{Seed: 11},
	}
	points := RunBudgetSweep(base, []float64{1, 0.5, 0.25})
	if len(points) != 3 {
		t.Fatalf("got %d points, want 3", len(points))
	}
	full := points[0]
	if full.TruthLinks == 0 || full.Detected == 0 {
		t.Fatalf("full-rate campaign detected nothing (truth=%d detected=%d); recall comparison is vacuous",
			full.TruthLinks, full.Detected)
	}
	if full.SentFrac != 1 || full.RecallVsFull != 1 || full.Table1Fidelity != 1 {
		t.Fatalf("full-rate point not normalized: %+v", full)
	}
	p50 := points[1]
	if p50.SentFrac > 0.55 {
		t.Errorf("budget=50%% sent %.3f of full-rate rounds; want ≤ 0.55", p50.SentFrac)
	}
	if p50.RecallVsFull < 0.95 {
		t.Errorf("budget=50%% recall %.3f of full rate (%d/%d vs %d/%d); want ≥ 0.95",
			p50.RecallVsFull, p50.Detected, p50.TruthLinks, full.Detected, full.TruthLinks)
	}
	p25 := points[2]
	if p25.SentFrac > 0.30 {
		t.Errorf("budget=25%% sent %.3f of full-rate rounds; want ≤ 0.30", p25.SentFrac)
	}

	// Render must not panic and must carry one row per point.
	tab := BudgetSweepReport(points)
	if len(tab.Rows) != len(points) {
		t.Fatalf("report has %d rows, want %d", len(tab.Rows), len(points))
	}
}
