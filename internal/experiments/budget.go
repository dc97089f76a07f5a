package experiments

import (
	"fmt"

	"afrixp/internal/budget"
	"afrixp/internal/interview"
	"afrixp/internal/report"
	"afrixp/internal/simclock"
)

// BudgetPoint is one row of the probe-budget sweep: what a campaign
// run at the given fraction of the full probing rate still detects.
type BudgetPoint struct {
	// Fraction is the configured probe budget (1 = full rate).
	Fraction float64
	// Rounds is the number of per-link probe rounds actually attempted
	// (budget skips and outage misses excluded); Skipped counts the
	// rounds the scheduler saved.
	Rounds, Skipped int
	// SentFrac is Rounds / the full-rate campaign's Rounds.
	SentFrac float64
	// TruthLinks is the number of discovered links whose ground-truth
	// annotation says the data plane was really congested; Detected is
	// how many of those the analysis labels Congested at the paper's
	// 10 ms operating point.
	TruthLinks, Detected int
	// Recall is Detected / TruthLinks; RecallVsFull normalizes by the
	// full-rate campaign's recall.
	Recall, RecallVsFull float64
	// MeanDetectDelay is the mean virtual time from a truth link's
	// first congestion onset (clamped to campaign start) to the first
	// detected far-end event, over links both runs detected.
	MeanDetectDelay simclock.Duration
	// Table1Fidelity is 1 − L1(flagged-count cells vs full rate) /
	// Σ(full-rate cells): how closely the budgeted Table 1 reproduces
	// the full-rate one (1 = identical).
	Table1Fidelity float64
}

// budgetRecall scores detection against the scenario's ground-truth
// interview annotations at the paper's 10 ms operating point, and
// accumulates time-to-detect over detected truth links.
func budgetRecall(res *Result) (truth, detected int, meanDelay simclock.Duration) {
	var delaySum simclock.Duration
	for _, vr := range res.VPs {
		for _, lr := range vr.SortedLinks() {
			ann, ok := res.World.Interviews.Find(vr.VP.ID, lr.Target)
			if !ok || !ann.CongestedTruth {
				continue
			}
			truth++
			v, ok := lr.Verdicts[10]
			if !ok || !v.Congested {
				continue
			}
			detected++
			if len(v.Far.Events) == 0 {
				continue
			}
			onset := res.Cfg.Campaign.Start
			for _, ph := range ann.Phases {
				if ph.Cause != interview.CauseNone && ph.Cause != "" {
					if ph.Interval.Start > onset {
						onset = ph.Interval.Start
					}
					break
				}
			}
			if d := v.Far.Events[0].Start.Sub(onset); d > 0 {
				delaySum += d
			}
		}
	}
	if detected > 0 {
		meanDelay = delaySum / simclock.Duration(detected)
	}
	return truth, detected, meanDelay
}

// ProbeSpend sums the per-link probe rounds attempted and the rounds
// the budget scheduler skipped, across every VP.
func (r *Result) ProbeSpend() (rounds, skipped int) {
	for _, y := range r.Yields() {
		rounds += y.Rounds
		skipped += y.Skipped
	}
	return rounds, skipped
}

// table1Fidelity compares flagged-link counts cell by cell (per VP ×
// threshold, "All VPs" row excluded) between a budgeted and the
// full-rate campaign.
func table1Fidelity(budgeted, full *Result) float64 {
	br, fr := Table1(budgeted), Table1(full)
	var diff, tot float64
	for i := range fr {
		if fr[i].VP == "All VPs" {
			continue
		}
		for _, thr := range full.Cfg.Thresholds {
			f := fr[i].Flagged[thr]
			b := 0
			if i < len(br) {
				b = br[i].Flagged[thr]
			}
			if d := f - b; d >= 0 {
				diff += float64(d)
			} else {
				diff -= float64(d)
			}
			tot += float64(f)
		}
	}
	if tot == 0 {
		return 1
	}
	fid := 1 - diff/tot
	if fid < 0 {
		fid = 0
	}
	return fid
}

// RunBudgetSweep runs the campaign at full rate and at each budget
// fraction, and scores every run against ground truth and against the
// full-rate baseline. Every positive fraction goes through the budget
// scheduler — a fraction of 1 (or above, clamped) runs it at full
// spend, so the sweep's 100 % row exercises the same code path as
// 99.9 % instead of silently bypassing the scheduler; only
// non-positive fractions disable it. base.Budget carries the scheduler
// tuning (seed, cadence, weights); its Fraction is overridden per
// point. The returned slice is ordered as given, with the full-rate
// reference prepended if the list doesn't already lead with it.
func RunBudgetSweep(base Config, fractions []float64) []BudgetPoint {
	bcfg := budget.Config{}
	if base.Budget != nil {
		bcfg = *base.Budget
	}
	if len(fractions) == 0 {
		fractions = []float64{1, 0.5, 0.25, 0.1}
	}
	if !(fractions[0] >= 1 || fractions[0] <= 0) {
		fractions = append([]float64{1}, fractions...)
	}

	run := func(frac float64) *Result {
		cfg := base
		if frac > 0 {
			bc := bcfg
			bc.Fraction = frac
			cfg.Budget = &bc
		} else {
			cfg.Budget = nil
		}
		return Run(cfg)
	}

	full := run(fractions[0])
	fullRounds, _ := full.ProbeSpend()
	fullTruth, fullDetected, _ := budgetRecall(full)

	points := make([]BudgetPoint, 0, len(fractions))
	for i, frac := range fractions {
		res := full
		if i > 0 {
			res = run(frac)
		}
		p := BudgetPoint{Fraction: frac}
		if frac > 1 {
			p.Fraction = 1
		}
		p.Rounds, p.Skipped = res.ProbeSpend()
		if fullRounds > 0 {
			p.SentFrac = float64(p.Rounds) / float64(fullRounds)
		}
		var delay simclock.Duration
		p.TruthLinks, p.Detected, delay = budgetRecall(res)
		p.MeanDetectDelay = delay
		if p.TruthLinks > 0 {
			p.Recall = float64(p.Detected) / float64(p.TruthLinks)
		}
		if fullTruth > 0 && fullDetected > 0 {
			fullRecall := float64(fullDetected) / float64(fullTruth)
			p.RecallVsFull = p.Recall / fullRecall
		}
		p.Table1Fidelity = table1Fidelity(res, full)
		points = append(points, p)
	}
	return points
}

// BudgetSweepReport renders the sweep as a table: probe spend,
// ground-truth recall, time-to-detect, and Table-1 fidelity per
// budget fraction.
func BudgetSweepReport(points []BudgetPoint) *report.Table {
	t := &report.Table{
		Title: "Probe budget sweep: detection vs. probing spend (10 ms operating point)",
		Header: []string{"budget", "rounds", "sent frac", "recall",
			"vs full", "mean detect delay", "table1 fidelity"},
	}
	for _, p := range points {
		t.AddRow(
			fmt.Sprintf("%.0f%%", 100*p.Fraction),
			fmt.Sprint(p.Rounds),
			fmt.Sprintf("%.3f", p.SentFrac),
			fmt.Sprintf("%d/%d", p.Detected, p.TruthLinks),
			fmt.Sprintf("%.3f", p.RecallVsFull),
			fmt.Sprint(p.MeanDetectDelay),
			fmt.Sprintf("%.3f", p.Table1Fidelity),
		)
	}
	return t
}
