// Command repro regenerates every table and figure of the paper's
// evaluation from a simulated campaign and prints paper-vs-measured
// comparisons.
//
// Usage:
//
//	repro [campaign flags] [-csvdir DIR] [-quiet] [-result-sha]
//	      [-budget-table] [-scale-sweep]
//	      [-table1] [-table2] [-figs] [-headline] [-bdrmap] [-waveforms]
//	      [-asrank] [-whatif] [-cpuprofile FILE] [-memprofile FILE]
//	      [-metrics FILE] [-metrics-addr HOST:PORT]
//
// The campaign flags (-days, -scale, -faults, -budget,
// -checkpoint-dir, …) are shared with cmd/observatory; `repro -h`
// lists them, and the afrixp.CampaignConfig field docs describe what
// each one does. With -faults the output gains a per-VP uptime and
// sample-yield table; with -budget, a probe-spend line.
//
// -budget-table runs the campaign at 100/50/25/10% budgets and prints
// detection recall, time-to-detect, and Table-1 fidelity per budget
// point; it cannot be combined with checkpointing. -scale-sweep runs
// the 1×/10×/100× engine sweep and prints links/s, resident
// bytes/link, and peak RSS per scale. -result-sha prints a SHA-256
// digest of every campaign observable at the bit level, for comparing
// runs.
//
// -metrics writes a campaign telemetry snapshot (JSON) at exit;
// -metrics-addr serves the same snapshot live at /metrics (plus the
// standard expvar surface at /debug/vars) while the run progresses,
// and carries the streaming observatory's API on the same port:
// /links, /links/{id}, /alerts (since-cursor, ?wait=1 long-polls),
// and /stream (SSE barrier feed from the online level-shift
// detectors). Telemetry and observatory are strictly read-side:
// results are unchanged by them.
//
// With no selection flags, everything is produced. The default run
// covers the paper's full 13-month campaign at scale 1.0; use -days
// and -scale for quick looks.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"afrixp"
	"afrixp/internal/experiments"
	"afrixp/internal/profiling"
	"afrixp/internal/report"
	"afrixp/internal/scenario"
)

// main delegates to run so that every deferred flush — CPU/heap
// profiles, the telemetry snapshot — executes on error paths too;
// an os.Exit in the body would skip them (the gap the profiling
// package used to document).
func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	var cfg afrixp.CampaignConfig
	cfg.RegisterFlags(flag.CommandLine)
	var (
		doSweep     = flag.Bool("scale-sweep", false, "run the 1×/10×/100× scale sweep (throughput, bytes/link, peak RSS) and print the table")
		csvDir      = flag.String("csvdir", "", "when set, write figure CSVs into this directory")
		quiet       = flag.Bool("quiet", false, "suppress progress output")
		doBudgetTab = flag.Bool("budget-table", false, "run the probe-budget sweep (100/50/25/10%) and print recall/time-to-detect/Table-1 fidelity per budget")
		doTable1    = flag.Bool("table1", false, "Table 1: threshold sensitivity")
		doTable2    = flag.Bool("table2", false, "Table 2: per-VP evolution")
		doFigs      = flag.Bool("figs", false, "Figures 1-4")
		doHead      = flag.Bool("headline", false, "§6.1 congested fraction")
		doBdrmap    = flag.Bool("bdrmap", false, "§4 bdrmap validation")
		doWaves     = flag.Bool("waveforms", false, "§5.2 A_w / Δt_UD")
		doRels      = flag.Bool("asrank", false, "AS-relationship inference validation")
		doWhatIf    = flag.Bool("whatif", false, "NETPAGE upgrade capacity-planning sweep")
		cpuProf     = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf     = flag.String("memprofile", "", "write a heap profile to this file at exit")
		metricsOut  = flag.String("metrics", "", "write a campaign telemetry snapshot (JSON) to this file at exit")
		metricsAddr = flag.String("metrics-addr", "", "serve live telemetry at http://ADDR/metrics during the run")
		resultSHA   = flag.Bool("result-sha", false, "print a SHA-256 digest of every campaign observable (bit-level), for comparing runs")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	var tele *afrixp.Telemetry
	var live *afrixp.Observatory
	if *metricsOut != "" || *metricsAddr != "" {
		tele = afrixp.NewTelemetry()
		if *metricsOut != "" {
			// Deferred so the snapshot lands even when a later stage
			// fails: whatever was counted up to the failure is kept.
			defer func() {
				if err := tele.WriteJSONFile(*metricsOut); err != nil {
					fmt.Fprintln(os.Stderr, err)
				} else {
					fmt.Fprintf(os.Stderr, "telemetry snapshot written to %s\n", *metricsOut)
				}
			}()
		}
		if *metricsAddr != "" {
			// The streaming observatory rides beside /metrics: the live
			// link table, alert log, and SSE stream of the campaign's
			// online detectors. Read-side only — results are unchanged.
			live = afrixp.NewObservatory(afrixp.ObservatoryConfig{})
			srv, err := tele.Serve(*metricsAddr, live.Mount)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "telemetry: live at http://%s/metrics\n", srv.Addr())
			fmt.Fprintf(os.Stderr, "observatory: live at http://%s/links /alerts /stream\n", srv.Addr())
		}
	}

	all := !(*doTable1 || *doTable2 || *doFigs || *doHead || *doBdrmap || *doWaves || *doRels || *doWhatIf)

	if !*quiet {
		cfg.Progress = os.Stderr
	}
	if *doBudgetTab {
		return runBudgetTable(cfg)
	}
	if *doSweep {
		fmt.Fprintln(os.Stderr, "scale sweep: 1× (paper world) + 10×/100× generated worlds...")
		points := experiments.RunScaleSweep(experiments.ScaleSweepConfig{
			GenSeed: cfg.GenSeed, Workers: cfg.Workers, Progress: cfg.Progress,
		})
		experiments.RenderScaleSweep(os.Stdout, points)
		return nil
	}

	fmt.Fprintf(os.Stderr, "building world (scale %.2f) and running campaign...\n", cfg.Scale)
	start := time.Now()
	cfg.Telemetry, cfg.Observatory = tele, live
	c := afrixp.RunCampaign(cfg)
	fmt.Fprintf(os.Stderr, "campaign finished in %v\n\n", time.Since(start).Round(time.Second))

	if *resultSHA {
		fmt.Fprintf(os.Stdout, "result sha256: %s\n", experiments.ResultDigest(c))
	}

	out := os.Stdout
	if cfg.Faults {
		t := &report.Table{Title: "fault plan: per-VP uptime and sample yield",
			Header: []string{"VP", "links", "uptime", "rounds", "missed", "skipped", "sample yield"}}
		for _, y := range c.Yields() {
			t.AddRow(y.VP, fmt.Sprint(y.Links),
				fmt.Sprintf("%.1f%%", 100*y.Uptime),
				fmt.Sprint(y.Rounds), fmt.Sprint(y.Missed), fmt.Sprint(y.Skipped),
				fmt.Sprintf("%.1f%%", 100*y.SampleYield))
		}
		t.Render(out)
		fmt.Fprintf(out, "%d fault episodes injected\n\n", len(c.Faults.Faults))
	}
	if cfg.Budget > 0 {
		rounds, skipped := c.ProbeSpend()
		fmt.Fprintf(os.Stderr, "probe budget %.0f%%: %d rounds sent, %d skipped (%.1f%% of schedule)\n\n",
			100*cfg.Budget, rounds, skipped,
			100*float64(rounds)/float64(rounds+skipped))
	}
	if all || *doTable1 {
		afrixp.Table1Report(c).Render(out)
		fmt.Fprintln(out)
		report.RenderComparisons(out, "Table 1 paper-vs-measured (10 ms column)", table1Comparisons(c))
		fmt.Fprintln(out)
	}
	if all || *doTable2 {
		afrixp.Table2Report(c).Render(out)
		fmt.Fprintln(out)
	}
	if all || *doHead {
		rows, frac := afrixp.Headline(c)
		t := &report.Table{Title: "§6.1: fraction of discovered links that experienced congestion",
			Header: []string{"VP", "links", "congested", "fraction"}}
		for _, r := range rows {
			t.AddRow(r.VP, fmt.Sprint(r.Links), fmt.Sprint(r.Congested),
				fmt.Sprintf("%.1f%%", 100*r.Fraction))
		}
		t.AddRow("All", "", "", fmt.Sprintf("%.1f%%", 100*frac))
		t.Render(out)
		fmt.Fprintf(out, "paper: 2.2%% of discovered links congested; measured: %.1f%%\n\n", 100*frac)
	}
	if all || *doBdrmap {
		fmt.Fprintf(out, "§4 bdrmap validation: mean neighbor coverage %.1f%% (paper: 96.2%%)\n\n",
			100*afrixp.BdrmapAccuracy(c))
	}
	if all || *doWaves {
		t := &report.Table{Title: "§5.2 waveform statistics (sanitized level shifts)",
			Header: []string{"case", "A_w (ms)", "Δt_UD", "events", "class", "paper A_w", "paper Δt_UD"}}
		paper := map[string][2]string{
			"GIXA-GHANATEL": {"27.9", "~20h"},
			"GIXA-KNET":     {"17.5", "2h14m"},
			"QCELL-NETPAGE": {"10.7", "6h22m"},
		}
		for _, wf := range afrixp.Waveforms(c) {
			p := paper[wf.Case]
			t.AddRow(wf.Case, fmt.Sprintf("%.1f", wf.AW),
				wf.DeltaTUD.Round(time.Minute).String(),
				fmt.Sprint(wf.Events), wf.Class, p[0], p[1])
		}
		t.Render(out)
		fmt.Fprintln(out)
	}
	if all || *doRels {
		ri, err := experiments.RunRelInference(scenario.Options{Seed: cfg.Seed, Scale: cfg.Scale},
			afrixp.Date(2016, 3, 17))
		if err != nil {
			fmt.Fprintf(os.Stderr, "asrank: %v\n", err)
		} else {
			fmt.Fprintf(out, "AS-rank stand-in: %d collector paths; %.0f%% of ground-truth links visible,\n",
				ri.Paths, 100*ri.Covered)
			fmt.Fprintf(out, "  %.0f%% of visible links classified exactly; bdrmap peers truth=%d inferred=%d\n\n",
				100*ri.Exact/ri.Covered, ri.PeersTruth, ri.PeersInferred)
		}
	}
	if all || *doWhatIf {
		pts, err := experiments.RunUpgradeWhatIf(scenario.Options{Seed: cfg.Seed, Scale: cfg.Scale}, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "whatif: %v\n", err)
		} else {
			t := &report.Table{Title: "what-if: NETPAGE upgrade capacity sweep (actual choice: 1 Gbps)",
				Header: []string{"upgrade to", "still congested", "post-upgrade P95 RTT"}}
			for _, pt := range pts {
				t.AddRow(fmt.Sprintf("%.0f Mbps", pt.UpgradeBps/1e6),
					fmt.Sprint(pt.CongestedAfter),
					fmt.Sprintf("%.1f ms", pt.PeakP95Ms))
			}
			t.Render(out)
			fmt.Fprintln(out)
		}
	}
	if all || *doFigs {
		for _, fig := range afrixp.Figures(c) {
			if err := fig.Render(out, 100, 14); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", fig.ID, err)
				continue
			}
			fmt.Fprintln(out)
			if *csvDir != "" {
				if err := writeCSV(*csvDir, fig); err != nil {
					fmt.Fprintf(os.Stderr, "csv %s: %v\n", fig.ID, err)
				}
			}
		}
	}
	return nil
}

// runBudgetTable runs the probe-budget sweep — the full-rate campaign
// plus budgeted reruns at 50/25/10% — and prints probe spend, ground-
// truth recall, time-to-detect, and Table-1 fidelity per budget point.
func runBudgetTable(cfg afrixp.CampaignConfig) error {
	fmt.Fprintf(os.Stderr, "budget sweep (scale %.2f): full rate + 50/25/10%% budgets...\n", cfg.Scale)
	t0 := time.Now()
	points, err := afrixp.BudgetSweep(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sweep finished in %v\n\n", time.Since(t0).Round(time.Second))
	experiments.BudgetSweepReport(points).Render(os.Stdout)
	fmt.Fprintln(os.Stdout)
	return nil
}

func table1Comparisons(c *afrixp.Campaign) []report.PaperComparison {
	paper := map[string]int{"VP1": 4, "VP2": 5, "VP3": 56, "VP4": 1, "VP5": 147, "VP6": 88}
	paperD := map[string]int{"VP1": 2, "VP2": 2, "VP3": 1, "VP4": 1, "VP5": 0, "VP6": 0}
	var rows []report.PaperComparison
	for _, r := range afrixp.Table1(c) {
		if r.VP == "All VPs" {
			continue
		}
		rows = append(rows, report.PaperComparison{
			Experiment: "table1", Metric: r.VP + " flagged@10ms (diurnal)",
			Paper:      fmt.Sprintf("%d (%d)", paper[r.VP], paperD[r.VP]),
			Measured:   fmt.Sprintf("%d (%d)", r.Flagged[10], r.Diurnal[10]),
			ShapeHolds: (paperD[r.VP] == 0) == (r.Diurnal[10] == 0),
			Note:       "counts scale with -scale",
		})
	}
	return rows
}

func writeCSV(dir string, fig experiments.Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fig.ID+".csv"))
	if err != nil {
		return err
	}
	if err := fig.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	f.Close()
	svg, err := os.Create(filepath.Join(dir, fig.ID+".svg"))
	if err != nil {
		return err
	}
	defer svg.Close()
	return fig.WriteSVG(svg, 960, 380)
}
