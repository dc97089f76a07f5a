package afrixp

import (
	"errors"
	"flag"
	"io"
	"runtime"
	"time"

	"afrixp/internal/analysis"
	"afrixp/internal/bdrmap"
	"afrixp/internal/budget"
	"afrixp/internal/experiments"
	"afrixp/internal/faults"
	"afrixp/internal/ixpdir"
	"afrixp/internal/levelshift"
	"afrixp/internal/monitor"
	"afrixp/internal/observatory"
	"afrixp/internal/registry"
	"afrixp/internal/report"
	"afrixp/internal/scenario"
	"afrixp/internal/simclock"
	"afrixp/internal/telemetry"
	"afrixp/internal/worldgen"
)

// CampaignConfig configures a full measurement campaign: bdrmap
// discovery snapshots, TSLP probing of every discovered link, loss
// batches on the case-study links, and the threshold-sweep analysis.
type CampaignConfig struct {
	// Seed drives every deterministic process (default: fixed).
	Seed uint64
	// Scale sizes the world. At 1.0 (the default) and below it scales
	// the authored paper world's synthetic populations; above 1.0 it
	// switches to the continent-scale generator (internal/worldgen),
	// synthesizing a world at Scale× the paper's size — 10× ≈ 15 IXPs
	// and ~10^4 interdomain links, 100× ≈ 40 IXPs and ~6·10^4 links —
	// with planted, machine-checkable congestion ground truth.
	Scale float64
	// GenSeed seeds the continent-scale generator independently of
	// Seed (only read when Scale > 1; 0 = the generator's default).
	GenSeed uint64
	// Days bounds the campaign from the paper's start date; zero runs
	// the paper's full period (2016-02-22 … 2017-03-27).
	Days int
	// StartOffsetDays delays the campaign start from the epoch (used
	// to center short campaigns on specific case-study phases).
	StartOffsetDays int
	// Thresholds for the Table 1 sweep (default 5/10/15/20 ms).
	Thresholds []float64
	// DisableLoss skips the 1 pps loss campaigns.
	DisableLoss bool
	// Workers fans probing and analysis across goroutines; results are
	// bit-identical for any value. Default runtime.GOMAXPROCS(0).
	Workers int
	// BatchSteps caps how many probing steps the scheduler hands a
	// worker per dispatch between barrier events; results are
	// bit-identical for any value. Default 1024.
	BatchSteps int
	// Shards partitions the campaign's VPs into Shards groups, each
	// with one shared compression arena bounding its resident series
	// memory; results are bit-identical for any value (see
	// internal/experiments). 0 or 1 keeps the per-VP private layout.
	Shards int
	// Faults enables the deterministic fault plan: VP outages, ICMP
	// blackouts and rate-limit duty cycles on case-link routers, and
	// link flaps, all drawn from the world seed (see internal/faults).
	// Fault boundaries become batch barriers, so results remain
	// bit-identical for any Workers / BatchSteps.
	Faults bool
	// FaultSeed perturbs the fault plan independently of Seed (only
	// read when Faults is set).
	FaultSeed uint64
	// Budget, when positive, installs the probe-budget scheduler: links
	// are ranked by marginal utility (streaming CUSUM evidence,
	// loss-rate variance, diurnal-window proximity) and probed at
	// adaptive power-of-two periods so the campaign spends at most
	// Budget of the full-rate probe count — flat links back off to a
	// heartbeat floor and plateau-stop, suspected level shifts densify
	// to full rate. Results are bit-identical per (Budget, BudgetSeed)
	// for any Workers × BatchSteps (see internal/budget). A budget of
	// 1 (or above, clamped) still runs the scheduler — every link at
	// period 1, spend parity with unscheduled probing — so full-budget
	// runs exercise the same code path as 99.9 %. 0 (the default)
	// disables the scheduler entirely.
	Budget float64
	// BudgetSeed perturbs the budget scheduler's probe interleaving
	// independently of Seed (only read when Budget is enabled).
	BudgetSeed uint64
	// CheckpointDir, when non-empty, serializes the engine's full
	// measurement state into the directory every CheckpointEvery of
	// virtual time at a batch barrier (internal/checkpoint,
	// DESIGN.md §15). Results are bit-identical with checkpointing on
	// or off.
	CheckpointDir string
	// CheckpointEvery is the virtual-time checkpoint cadence (default
	// 24 h of campaign time when CheckpointDir is set).
	CheckpointEvery time.Duration
	// Resume loads the newest valid checkpoint from CheckpointDir and
	// resumes the campaign from its barrier, bit-identical to an
	// uninterrupted run. A checkpoint from a differently-configured
	// run fails loudly; an empty directory starts fresh.
	Resume bool
	// Observatory, when non-nil, attaches the streaming observation
	// service: the engine feeds it collected slots at batch barriers,
	// its per-link online detectors walk clear → suspected → congested
	// as virtual time advances, and its HTTP API (mount beside /metrics
	// via Telemetry.Serve and Observatory.Mount) serves the live link
	// table, alert log, and SSE stream. Strictly read-side: campaign
	// results are bit-identical with or without it, and the service's
	// own alert log and end-of-campaign verdicts are bit-identical for
	// any Workers × BatchSteps × Shards (DESIGN.md §16).
	Observatory *Observatory
	// Progress, when non-nil, receives campaign progress lines.
	Progress io.Writer
	// Telemetry, when non-nil, instruments the campaign: counters,
	// per-worker utilization, and the phase span/event log, readable
	// live (Telemetry.Serve) or exported afterwards (WriteJSON).
	// Strictly read-side: results are bit-identical with or without it.
	Telemetry *Telemetry
}

// RegisterFlags binds the campaign flags shared by cmd/repro and
// cmd/observatory onto c's fields. The defaults are Scale 1, Workers
// runtime.GOMAXPROCS(0) and zero for everything else; registering
// overwrites whatever c held.
func (c *CampaignConfig) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.Days, "days", 0, "campaign length in days (0 = the paper's full period)")
	fs.IntVar(&c.StartOffsetDays, "start-offset", 0, "days after 2016-02-22 to start the campaign")
	fs.Float64Var(&c.Scale, "scale", 1, "world scale: ≤1 scales the authored paper world's populations; >1 generates a continent-scale world (see -gen-seed)")
	fs.Uint64Var(&c.GenSeed, "gen-seed", 0, "continent-scale generator seed (only with -scale > 1; 0 = default)")
	fs.IntVar(&c.Shards, "shards", 0, "partition VPs into this many memory shards, one shared series arena each (0/1 = private per-VP arenas; results are identical for any value)")
	fs.Uint64Var(&c.Seed, "seed", 0, "world seed (0 = default)")
	fs.BoolVar(&c.DisableLoss, "no-loss", false, "skip the 1 pps loss campaigns")
	fs.IntVar(&c.Workers, "workers", runtime.GOMAXPROCS(0), "probing/analysis worker goroutines (results are identical for any value)")
	fs.IntVar(&c.BatchSteps, "batch", 0, "max probing steps per worker dispatch (0 = default 1024; results are identical for any value)")
	fs.BoolVar(&c.Faults, "faults", false, "inject the deterministic fault plan (VP outages, ICMP blackouts/rate limits, link flaps) and report per-VP uptime/sample yield")
	fs.Uint64Var(&c.FaultSeed, "fault-seed", 0, "extra seed for the fault plan (only with -faults)")
	fs.Float64Var(&c.Budget, "budget", 0, "probe budget as a fraction of full rate (0 = no scheduler; ≥1 = scheduler at full spend; results identical per (budget, budget-seed) for any -workers/-batch)")
	fs.Uint64Var(&c.BudgetSeed, "budget-seed", 0, "extra seed for the probe-budget schedule (only with -budget)")
	fs.StringVar(&c.CheckpointDir, "checkpoint-dir", "", "snapshot the campaign's measurement state into this directory at batch barriers")
	fs.DurationVar(&c.CheckpointEvery, "checkpoint-every", 0, "virtual-time cadence between checkpoints (0 = default 24h; only with -checkpoint-dir)")
	fs.BoolVar(&c.Resume, "resume", false, "resume from the newest valid checkpoint in -checkpoint-dir (bit-identical to an uninterrupted run)")
}

// Telemetry is the campaign instrumentation root (see
// internal/telemetry): lock-free counters and histograms plus a
// span/event log with virtual- and wall-clock stamps.
type Telemetry = telemetry.Telemetry

// TelemetrySnapshot is the frozen JSON export of a Telemetry.
type TelemetrySnapshot = telemetry.Snapshot

// NewTelemetry builds a telemetry root ready to attach to a campaign.
func NewTelemetry() *Telemetry { return telemetry.New() }

// Observatory is the streaming congestion-observation service (see
// internal/observatory): per-link online level-shift detectors fed at
// batch barriers, a deterministic alert log, and a live HTTP/SSE API.
type Observatory = observatory.Service

// ObservatoryAlert is one timestamped link state transition from the
// streaming detector's clear → suspected → congested ladder.
type ObservatoryAlert = observatory.Alert

// NewObservatory builds a streaming observatory ready to attach to a
// campaign (CampaignConfig.Observatory) and to mount beside /metrics
// (Telemetry.Serve(addr, svc.Mount)).
func NewObservatory() *Observatory { return observatory.New(observatory.Config{}) }

// Campaign is the result of a full run: per-VP discovery snapshots,
// per-link verdicts, and case-study series.
type Campaign = experiments.Result

// LinkRecord is one probed link's campaign data.
type LinkRecord = experiments.LinkRecord

// Verdict is the per-link congestion analysis outcome.
type Verdict = analysis.Verdict

// Figure is one reproduced paper figure.
type Figure = experiments.Figure

// VPYield is one vantage point's uptime and sample-yield accounting
// (meaningful when the campaign ran with Faults enabled).
type VPYield = experiments.VPYield

// FaultSchedule is the injected fault plan attached to a campaign.
type FaultSchedule = faults.Schedule

// Table re-exports the report table for rendering.
type Table = report.Table

// RunCampaign executes the campaign and per-link analysis.
func RunCampaign(cfg CampaignConfig) *Campaign {
	return experiments.Run(cfg.engineConfig())
}

// engineConfig translates a CampaignConfig into the engine's config.
// It is the only place that derives the campaign interval, the world
// builder, the fault and budget plans, and the resume directory.
func (c CampaignConfig) engineConfig() experiments.Config {
	ecfg := experiments.Config{
		Opts:        scenario.Options{Seed: c.Seed, Scale: c.Scale},
		Campaign:    CampaignInterval(c.Days, c.StartOffsetDays),
		Thresholds:  c.Thresholds,
		DisableLoss: c.DisableLoss,
		Workers:     c.Workers,
		BatchSteps:  c.BatchSteps,
		Shards:      c.Shards,
		Progress:    c.Progress,
		Telemetry:   c.Telemetry,
		Observatory: c.Observatory,

		CheckpointDir:   c.CheckpointDir,
		CheckpointEvery: simclock.Duration(c.CheckpointEvery),
	}
	if c.Resume {
		ecfg.ResumeFrom = c.CheckpointDir
	}
	if c.Scale > 1 {
		// Continent scale: swap the authored paper world for a
		// generated one. Scale ≤ 1 keeps every existing invocation
		// byte-identical to before the generator existed.
		gcfg := worldgen.Options{Seed: c.GenSeed, Scale: c.Scale}
		ecfg.BuildWorld = func() *scenario.World { return worldgen.Generate(gcfg) }
	}
	if c.Faults {
		ecfg.Faults = &faults.Config{Seed: c.FaultSeed}
	}
	if c.Budget > 0 {
		ecfg.Budget = &budget.Config{Fraction: c.Budget, Seed: c.BudgetSeed}
	}
	return ecfg
}

// CampaignInterval is the probing window of a campaign that starts
// startOffsetDays after the epoch and runs for days, clamped at
// CampaignEnd. days ≤ 0 runs to CampaignEnd; with no offset either,
// that is the paper's full period.
func CampaignInterval(days, startOffsetDays int) Interval {
	iv := Interval{Start: 0, End: simclock.LatencyEnd}
	if days <= 0 && startOffsetDays <= 0 {
		return iv
	}
	iv.Start = simclock.Time(0).Add(time.Duration(startOffsetDays) * 24 * time.Hour)
	if days > 0 {
		iv.End = min(iv.Start.Add(time.Duration(days)*24*time.Hour), simclock.LatencyEnd)
	}
	return iv
}

// BudgetSweep runs the campaign at full rate and at 50/25/10 % probe
// budgets and scores each run's recall, time-to-detect and Table 1
// fidelity. Each point overrides cfg.Budget; cfg.BudgetSeed is kept.
// The runs are configured differently, so they cannot share one
// checkpoint manifest: a CheckpointDir or Resume is an error.
func BudgetSweep(cfg CampaignConfig) ([]experiments.BudgetPoint, error) {
	if cfg.CheckpointDir != "" || cfg.Resume {
		return nil, errors.New("budget sweep: checkpointing is not supported (the sweep runs several differently-configured campaigns)")
	}
	// Any positive budget makes the translation carry BudgetSeed; the
	// sweep sets the fraction per point.
	cfg.Budget = 1
	return experiments.RunBudgetSweep(cfg.engineConfig(), nil), nil
}

// Table1 computes the paper's threshold-sensitivity rows.
func Table1(c *Campaign) []experiments.Table1Row { return experiments.Table1(c) }

// Table1Report renders Table 1.
func Table1Report(c *Campaign) *Table { return experiments.Table1Report(c) }

// Table2 computes the per-VP evolution rows.
func Table2(c *Campaign) []experiments.Table2Row { return experiments.Table2(c) }

// Table2Report renders Table 2.
func Table2Report(c *Campaign) *Table { return experiments.Table2Report(c) }

// Figures extracts every reproducible figure covered by the campaign
// interval.
func Figures(c *Campaign) []Figure { return experiments.Figures(c) }

// Headline returns the per-VP congested-link rows and the overall
// congested fraction (the paper's 2.2 % result).
func Headline(c *Campaign) ([]experiments.HeadlineRow, float64) {
	return experiments.Headline(c)
}

// BdrmapAccuracy returns the mean neighbor-discovery coverage across
// all snapshots (the paper reports 96.2 %).
func BdrmapAccuracy(c *Campaign) float64 { return experiments.BdrmapAccuracy(c) }

// Waveforms returns A_w / Δt_UD per case-study link.
func Waveforms(c *Campaign) []experiments.Waveform { return experiments.Waveforms(c) }

// BorderMap runs a one-shot bdrmap discovery from a VP at virtual
// time t, using the world's published datasets.
func BorderMap(w *World, vp *VP, t Time) (*bdrmap.Result, error) {
	p := NewProber(w, vp)
	return bdrmap.Run(p, bdrmap.Config{
		BGP:      w.BGP,
		Rels:     w.Graph,
		RIR:      registry.NewIndex(w.RIRFile),
		IXP:      ixpdir.NewIndex(w.Directory),
		Geo:      w.GeoDB,
		RDNS:     w.RDNS,
		Siblings: vp.Siblings,
	}, t)
}

// BorderMapResult is the bdrmap output type.
type BorderMapResult = bdrmap.Result

// ValidateNeighbors scores an inferred neighbor set against ground
// truth: the discovered fraction plus missed and spurious neighbors.
func ValidateNeighbors(res *BorderMapResult, truth []ASN) (frac float64, missed, spurious []ASN) {
	return bdrmap.ValidateNeighbors(res, truth)
}

// AnalysisConfig tunes the per-link congestion analysis.
type AnalysisConfig = analysis.Config

// DefaultAnalysisConfig is the paper's operating point: 10 ms
// threshold, 30-minute minimum event duration.
func DefaultAnalysisConfig() AnalysisConfig { return analysis.DefaultConfig() }

// AnalyzeLink runs the §5.2 pipeline over one link's collected series.
func AnalyzeLink(ls analysis.LinkSeries, cfg AnalysisConfig) Verdict {
	return analysis.AnalyzeLink(ls, cfg)
}

// AnalyzeLinkSweep runs the per-link pipeline across a threshold sweep
// (Table 1), detecting level shifts once per link end and classifying
// per threshold. Verdicts are bit-identical to independent AnalyzeLink
// calls at each threshold.
func AnalyzeLinkSweep(ls analysis.LinkSeries, cfg AnalysisConfig, thresholds []float64) []Verdict {
	return analysis.AnalyzeLinkSweep(ls, cfg, thresholds)
}

// LinkSeries carries one link's near/far RTT series.
type LinkSeries = analysis.LinkSeries

// Collector streams TSLP rounds into analysis-ready series.
type Collector = analysis.Collector

// CollectorConfig sizes a Collector.
type CollectorConfig = analysis.CollectorConfig

// NewCollector builds a Collector for a TSLP session.
func NewCollector(ts *TSLP, cfg CollectorConfig) *Collector {
	return analysis.NewCollector(ts, cfg)
}

// LevelShiftEvent is one detected congestion episode.
type LevelShiftEvent = levelshift.Event

// Monitor is the online congestion watcher (the §7 recommendation
// implemented): feed it TSLP rounds and it raises onset / cleared /
// unreachable alerts as they happen.
type Monitor = monitor.Monitor

// Alert is one operator notification from a Monitor.
type Alert = monitor.Alert

// Alert kinds.
const (
	AlertOnset       = monitor.Onset
	AlertCleared     = monitor.Cleared
	AlertUnreachable = monitor.Unreachable
)

// NewMonitor builds an online watcher for one link.
func NewMonitor(target LinkTarget) *Monitor { return monitor.New(target) }
