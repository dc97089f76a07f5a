package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"afrixp/internal/loss"
	"afrixp/internal/scenario"
	"afrixp/internal/simclock"
)

// runShortCampaign runs a 4-day mid-2016 campaign that exercises every
// concurrent code path: the window covers a Table 2 snapshot date
// (VP4, 2016-07-22) and the 1 pps loss campaigns (which begin
// 2016-07-19 + 2 days), so snapshot discovery, TSLP rounds, and loss
// batches all run.
func runShortCampaign(workers int) *Result {
	return runShortCampaignCfg(workers, 0, false)
}

// runShortCampaignCfg is runShortCampaign with the batch-planner cap
// and the series backing pinned too — the axes the chunked-backing
// equivalence matrix sweeps.
func runShortCampaignCfg(workers, batchSteps int, flat bool) *Result {
	return Run(Config{
		Opts: scenario.Options{Seed: 5, Scale: 0.1},
		Campaign: simclock.Interval{
			Start: simclock.Date(2016, time.July, 20),
			End:   simclock.Date(2016, time.July, 24),
		},
		Workers:    workers,
		BatchSteps: batchSteps,
		flatSeries: flat,
	})
}

// renderReports renders Table 1, Table 2, and the headline fraction as
// the CLI would print them.
func renderReports(t *testing.T, res *Result) string {
	t.Helper()
	var b bytes.Buffer
	if err := Table1Report(res).Render(&b); err != nil {
		t.Fatalf("table1: %v", err)
	}
	if err := Table2Report(res).Render(&b); err != nil {
		t.Fatalf("table2: %v", err)
	}
	rows, frac := Headline(res)
	fmt.Fprintf(&b, "headline=%x\n", bits(frac))
	for _, r := range rows {
		fmt.Fprintf(&b, "%s %d %d %x\n", r.VP, r.Links, r.Congested, bits(r.Fraction))
	}
	return b.String()
}

// firstDiff locates the first differing line of two multi-line strings.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n  workers=1: %s\n  workers=8: %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(la), len(lb))
}

// TestParallelCampaignBitIdentical is the engine's core guarantee: a
// campaign probed and analyzed by 8 workers produces exactly the same
// numbers as the sequential run — every series value, verdict, shift,
// event, loss batch, and rendered report, compared at the bit level.
func TestParallelCampaignBitIdentical(t *testing.T) {
	seq := runShortCampaign(1)
	par := runShortCampaign(8)

	links := 0
	for _, vr := range seq.VPs {
		links += len(vr.Links)
	}
	if links == 0 {
		t.Fatal("campaign discovered no links; determinism check is vacuous")
	}

	if a, b := summarizeResult(seq), summarizeResult(par); a != b {
		t.Errorf("campaign results differ between workers=1 and workers=8\n%s", firstDiff(a, b))
	}
	if a, b := renderReports(t, seq), renderReports(t, par); a != b {
		t.Errorf("rendered reports differ between workers=1 and workers=8\n%s", firstDiff(a, b))
	}
}

// TestChunkedCampaignBitIdentical is the tschunk retrofit's guarantee:
// a campaign collected into XOR-compressed chunked series produces
// exactly the same numbers — every series value, verdict scalar,
// shift, event, loss batch, loss grid, and rendered report — as the
// flat-slice backing, across the full Workers × BatchSteps matrix. The
// flat workers=1 batch=1 run is the reference; every other cell of
// {flat, chunked} × {1, 8 workers} × {1, 4096 batch steps} must match
// it at the bit level.
func TestChunkedCampaignBitIdentical(t *testing.T) {
	ref := runShortCampaignCfg(1, 1, true)
	links := 0
	for _, vr := range ref.VPs {
		links += len(vr.Links)
	}
	if links == 0 {
		t.Fatal("campaign discovered no links; equivalence check is vacuous")
	}
	refSum, refRep := summarizeResult(ref), renderReports(t, ref)

	for _, flat := range []bool{true, false} {
		for _, workers := range []int{1, 8} {
			for _, batch := range []int{1, 4096} {
				if flat && workers == 1 && batch == 1 {
					continue // the reference itself
				}
				res := runShortCampaignCfg(workers, batch, flat)
				checkBacking(t, res, flat)
				if got := summarizeResult(res); got != refSum {
					t.Errorf("flat=%t workers=%d batch=%d: results differ from flat reference\n%s",
						flat, workers, batch, firstDiff(refSum, got))
				}
				if got := renderReports(t, res); got != refRep {
					t.Errorf("flat=%t workers=%d batch=%d: reports differ from flat reference\n%s",
						flat, workers, batch, firstDiff(refRep, got))
				}
				if !flat && workers == 1 && batch == 1 {
					checkLossGrids(t, res)
				}
			}
		}
	}
}

// checkBacking asserts every collected series actually uses the
// backing under test — otherwise the equivalence matrix could pass by
// comparing flat against flat.
func checkBacking(t *testing.T, res *Result, flat bool) {
	t.Helper()
	for _, vr := range res.VPs {
		for _, lr := range vr.SortedLinks() {
			ls := lr.Collector.Series()
			if ls.Near.Chunked() == flat || ls.Far.Chunked() == flat {
				t.Fatalf("link %v: Chunked()=%t with flatSeries=%t", lr.Target, ls.Near.Chunked(), flat)
			}
		}
	}
}

// checkLossGrids pins the streaming loss grid against the offline
// construction: gridding the completed batches with loss.ToSeries over
// the same GridFor layout must reproduce LossGrid bit for bit, with no
// batch falling off the grid.
func checkLossGrids(t *testing.T, res *Result) {
	t.Helper()
	grids := 0
	for _, vr := range res.VPs {
		for _, lr := range vr.SortedLinks() {
			g := lr.LossGrid()
			if g == nil {
				continue
			}
			grids++
			if !g.Chunked() {
				t.Errorf("link %v: loss grid is not chunk-backed", lr.Target)
			}
			gridStart, gridStep, gridN := loss.GridFor(lr.lossIv)
			want, dropped := loss.ToSeries(lr.LossBatches, gridStart, gridStep, gridN)
			if dropped != 0 {
				t.Errorf("link %v: ToSeries dropped %d batches off its own grid", lr.Target, dropped)
			}
			if g.Len() != want.Len() {
				t.Fatalf("link %v: grid len %d, ToSeries len %d", lr.Target, g.Len(), want.Len())
			}
			for i := 0; i < g.Len(); i++ {
				if bits(g.ValueAt(i)) != bits(want.ValueAt(i)) {
					t.Fatalf("link %v: loss grid slot %d = %x, ToSeries = %x",
						lr.Target, i, bits(g.ValueAt(i)), bits(want.ValueAt(i)))
				}
			}
		}
	}
	if grids == 0 {
		t.Fatal("no loss grids collected; grid equivalence check is vacuous")
	}
}

// TestReanalyzeParallelMatchesSequential checks the analysis fan-out in
// isolation: re-deriving verdicts with many workers from one collected
// campaign must reproduce the sequential verdicts bit for bit.
func TestReanalyzeParallelMatchesSequential(t *testing.T) {
	res := runShortCampaign(1)
	before := summarizeResult(res)
	res.Reanalyze(8)
	if after := summarizeResult(res); before != after {
		t.Errorf("Reanalyze(8) changed verdicts\n%s", firstDiff(before, after))
	}
}
