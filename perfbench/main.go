// Command perfbench is the campaign benchmark: it runs one named
// workload through experiments.Run, checks every campaign's outputs,
// and prints its metrics as one JSON line.
//
//	python3 perfbench/run.py --workload paper-season --seed 7 --seconds 30 --trace 0
//
// run.py builds this package (module afrixp/perfbench, which reaches
// the engine through a replace of the parent module) and runs it with
// the same flags. To run it directly from this directory:
//
//	go run . --workload observatory-live --seed 7 --seconds 30 --trace 1
//
// # Workloads
//
//   - paper-season: the authored paper world at Scale 1, 60 virtual
//     days from 2016-02-29, default batch size, no budget, faults or
//     observatory. Why: it is the paper's own scenario (QCELL–NETPAGE
//     before its upgrade, GIXA–GHANATEL phase 1) and analysis is its
//     largest phase, so cusum, diurnal and tschunk-decode changes show
//     here.
//   - continent-discovery: a 100× worldgen world probed from its first
//     48 VPs for 1 virtual day from 2016-07-20 with 4 shards. Why:
//     bdrmap.Run → Network.Inject → fluid-queue integration takes
//     nearly all of it and analysis almost none, so discovery and
//     world-clock changes show here and analysis changes should not.
//   - observatory-live: a 10× worldgen world, 7 virtual days from
//     2016-07-20, a 50 % probe budget, the default fault plan and 2
//     shards, with the streaming observatory attached and read over
//     HTTP. Why: it is the only workload that runs budget, faults, the
//     observatory feed (writes) and its API (reads), which share one
//     lock, so a feed speed-up that stalls readers shows as worse API
//     latency.
//
// Load shape: one process; campaign Workers = the machine's CPU count.
// observatory-live adds one open-loop reader on one loopback keep-alive
// connection: a request is due every 10 ms (100 req/s) whether or not
// the last one returned, cycling GET /links?page=P&per=100 through
// every page, GET /alerts?since=N&limit=100 following the reply's next
// cursor, and GET /links/{id} on planted congested links the table has
// listed. Each request is timed from its due time; the generator's own
// lateness is reported; errors and non-200 replies count as failed and
// as latency over any limit (they are filed at the run's whole measured
// window). The reader stops when experiments.Run returns.
//
// # Seeds
//
// Every seed a workload uses is an argument; the engine receives only
// the generated config. --seed n is the run seed: it sets the paper
// world's noise seed (paper-season) and the probe-budget and fault
// seeds (observatory-live). It leaves generated worlds alone, because a
// generator seed draws the topology and moves campaign cost by about
// ±7 %: continent-discovery uses the generator's default world (as
// experiments.RunScaleSweep does) and observatory-live world seed 7 (as
// experiments.RunStreamAlertLatency does), so continent-discovery
// repeats the same inputs under every run seed. --world-seed,
// --budget-seed and --fault-seed override one seed each.
//
// Default seed set: --seed 7 with the worlds above. Held-out set, kept
// for checking a claim on seeds not used while writing it: --seed 1009
// --world-seed 11.
//
// # Runs and metrics
//
// --trace 0 repeats set-up (world construction, timed alone) and the
// campaign on the built world, handed in through Config.BuildWorld,
// until --seconds have passed. It reports the metrics every workload
// has: setup_s and campaign_s as medians, peak_rss_mb (VmHWM after the
// first campaign, before any output check) and ok_share (1 − failed ÷
// attempted, where an operation is a campaign, failing when its output
// or digest check fails, or an API request).
//
// --trace 1 alternates untraced and traced campaigns for --seconds and
// reports the per-layer metrics of layers.go from the first traced one:
// engine phase spans and counters read through telemetry.Telemetry,
// plus benchmark-timed calls into each layer's public functions on that
// campaign's collected data. It also reports the figures only
// observatory-live has — alert latency and quality against planted
// truth, and API latency over every request of the run — with zeros on
// the other workloads.
//
// Every campaign's experiments.ResultDigest is printed; all campaigns
// of one run (traced or not) must agree. Lines before the final JSON
// object start with "#".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"afrixp/internal/experiments"
	"afrixp/internal/observatory"
	"afrixp/internal/scenario"
	"afrixp/internal/telemetry"
)

const defaultSeed = 7

// setup_s is the median of every world construction in the run: the
// one before each campaign plus extra builds after it, until builds
// reach setupPerCampaign of time or maxBuildsPerCampaign in number, so
// the millisecond-scale builds are sampled throughout the run, and at
// least minSetups in all.
const (
	setupPerCampaign     = 100 * time.Millisecond
	maxBuildsPerCampaign = 25
	minSetups            = 5
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name       = flag.String("workload", "", "workload name (paper-season, continent-discovery, observatory-live)")
		seed       = flag.Uint64("seed", defaultSeed, "run seed: the paper world's noise seed, the budget and fault seeds")
		worldSeed  = flag.Uint64("world-seed", 0, "override the world/generator seed")
		budgetSeed = flag.Uint64("budget-seed", 0, "override the probe-budget seed")
		faultSeed  = flag.Uint64("fault-seed", 0, "override the fault-plan seed")
		seconds    = flag.Int("seconds", 30, "measurement window in seconds")
		trace      = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	)
	flag.Parse()
	wl, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	s := wl.seeds(*seed)
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "world-seed":
			s.World = *worldSeed
		case "budget-seed":
			s.Budget = *budgetSeed
		case "fault-seed":
			s.Fault = *faultSeed
		}
	})
	fmt.Printf("# workload=%s seeds world=%d budget=%d fault=%d workers=%d\n",
		wl.name, s.World, s.Budget, s.Fault, runtime.NumCPU())

	window := time.Duration(*seconds) * time.Second
	var out *output
	if *trace == 1 {
		out, err = measureLayers(wl, s, window)
	} else {
		out, err = measureEndToEnd(wl, s, window)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

type output struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// iteration is one set-up plus campaign.
type iteration struct {
	setup, campaign time.Duration
	res             *experiments.Result
	svc             *observatory.Service
	tele            *telemetry.Telemetry
	api             []apiSample
	quality         alertQuality
}

// timeBuild times one world construction from a collected heap.
func timeBuild(wl *workload, s seeds) time.Duration {
	runtime.GC()
	t0 := time.Now()
	wl.build(s)
	return time.Since(t0)
}

// runCampaign builds the world (timed as set-up), then runs the
// campaign on it (timed as campaign_s), with telemetry when traced and
// with the observatory and its reader on live workloads.
func runCampaign(wl *workload, s seeds, traced bool) (*iteration, error) {
	runtime.GC()
	t0 := time.Now()
	w := wl.build(s)
	it := &iteration{setup: time.Since(t0)}

	cfg := wl.config(s)
	cfg.BuildWorld = func() *scenario.World { return w }
	cfg.Workers = runtime.NumCPU()
	if traced {
		it.tele = telemetry.New()
		cfg.Telemetry = it.tele
	}
	var rd *reader
	if wl.live {
		it.svc = observatory.New(observatory.Config{})
		cfg.Observatory = it.svc
		var err error
		if rd, err = startReader(it.svc, plantedIDs(w)); err != nil {
			return nil, err
		}
	}
	t1 := time.Now()
	it.res = experiments.Run(cfg)
	it.campaign = time.Since(t1)
	if rd != nil {
		it.api = rd.stop()
		it.quality = scoreAlerts(it.res, it.svc)
	}
	return it, nil
}

// ledger counts operations and checks result digests across a run.
type ledger struct {
	attempted, failed int
	campaigns         int
	checksFailed      int
	digest            string
	api               []apiSample
}

// record checks one campaign (the workload's output check, any extra
// error, and digest agreement) and files its API requests.
func (l *ledger) record(wl *workload, it *iteration, extra error) {
	l.attempted++
	l.campaigns++
	digest := experiments.ResultDigest(it.res)
	fmt.Printf("# campaign %d traced=%t setup_s=%.4f campaign_s=%.4f digest=%s\n",
		l.campaigns, it.tele != nil, it.setup.Seconds(), it.campaign.Seconds(), digest)
	err := wl.check(it)
	if err == nil {
		err = extra
	}
	if err == nil && l.digest != "" && digest != l.digest {
		err = fmt.Errorf("result digest %s differs from the run's first %s", digest, l.digest)
	}
	if l.digest == "" {
		l.digest = digest
	}
	if err != nil {
		fmt.Printf("# check failed: %v\n", err)
		l.failed++
		l.checksFailed++
	}
	for _, a := range it.api {
		l.attempted++
		if !a.ok {
			l.failed++
		}
	}
	l.api = append(l.api, it.api...)
}

func (l *ledger) output(m metrics) *output {
	return &output{Correct: l.checksFailed == 0, Attempted: l.attempted, Failed: l.failed, Metrics: m}
}

func measureEndToEnd(wl *workload, s seeds, window time.Duration) (*output, error) {
	start := time.Now()
	var l ledger
	var setups, camps []float64
	rss := 0.0
	for i := 0; i == 0 || time.Since(start) < window; i++ {
		it, err := runCampaign(wl, s, false)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			rss = peakRSSMB()
		}
		camps = append(camps, it.campaign.Seconds())
		l.record(wl, it, nil)
		setups = append(setups, it.setup.Seconds())
		spent := it.setup
		for n := 1; n < maxBuildsPerCampaign && (spent < setupPerCampaign || len(setups) < minSetups); n++ {
			d := timeBuild(wl, s)
			setups = append(setups, d.Seconds())
			spent += d
		}
	}
	m := metrics{}
	m.set("setup_s", "s", median(setups))
	m.set("campaign_s", "s", median(camps))
	m.set("peak_rss_mb", "MB", rss)
	m.set("ok_share", "ratio", 1-ratio(float64(l.failed), float64(l.attempted)))
	return l.output(m), nil
}

func measureLayers(wl *workload, s seeds, window time.Duration) (*output, error) {
	start := time.Now()
	var l ledger
	var plain, traced []float64
	var m metrics
	for i := 0; i == 0 || time.Since(start) < window; i++ {
		// Alternate which side goes first so drift favours neither.
		for _, tr := range []bool{i%2 == 1, i%2 == 0} {
			it, err := runCampaign(wl, s, tr)
			if err != nil {
				return nil, err
			}
			var extra error
			if !tr {
				plain = append(plain, it.campaign.Seconds())
			} else {
				traced = append(traced, it.campaign.Seconds())
				if m == nil {
					m, extra = layerMetrics(wl, s, it)
				}
			}
			l.record(wl, it, extra)
		}
	}
	m.set("trace.overhead_share", "ratio", median(traced)/median(plain)-1)
	apiMetrics(m, l.api, time.Since(start))
	return l.output(m), nil
}
