package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"time"

	"afrixp/internal/analysis"
	"afrixp/internal/observatory"
	"afrixp/internal/simclock"
	"afrixp/internal/telemetry"
	"afrixp/internal/timeseries"
)

// unattributedMax is the phase-accounting tolerance: build-world, the
// initial discovery runs, probing and analysis must cover all but this
// share of campaign_s in the traced run.
const unattributedMax = 0.05

// replayCadence is the virtual barrier spacing of the observatory feed
// replay. The feed is cursor-based, so any cadence yields the live log.
const replayCadence = 6 * time.Hour

// phases is the traced campaign's wall time split by engine span.
type phases struct {
	// discovery sums every discovery span; nestedDiscovery the ones
	// inside the probing span (refreshes and snapshots at barriers).
	discovery, nestedDiscovery float64
	batch, probing, analysis   float64
	// top sums the top-level spans: build-world, initial discovery,
	// probing and analysis.
	top         float64
	discoveryMs []float64
}

func splitSpans(spans []telemetry.Span) phases {
	var p phases
	var probing *telemetry.Span
	for i := range spans {
		if spans[i].Phase == "probing" {
			probing = &spans[i]
		}
	}
	for _, s := range spans {
		d := s.WallEnd.Sub(s.WallStart).Seconds()
		switch s.Phase {
		case "discovery":
			p.discovery += d
			p.discoveryMs = append(p.discoveryMs, d*1000)
			if probing != nil && !s.WallStart.Before(probing.WallStart) && !s.WallEnd.After(probing.WallEnd) {
				p.nestedDiscovery += d
			} else {
				p.top += d
			}
		case "probe-batch":
			p.batch += d
		case "probing":
			p.probing += d
			p.top += d
		case "analysis":
			p.analysis += d
			p.top += d
		case "build-world":
			p.top += d
		}
	}
	return p
}

// layerMetrics derives every per-layer metric from one traced campaign:
// its spans and counters, plus benchmark-timed calls into the layers on
// its collected data. The error reports a failed trace-side check.
func layerMetrics(wl *workload, s seeds, it *iteration) (metrics, error) {
	m := metrics{}
	res := it.res
	snap := it.tele.Snapshot()
	ph := splitSpans(it.tele.Spans())
	var problems []string

	// Discovery: bdrmap (+ alias, registry, ixpdir, geo).
	links := 0
	for _, vr := range res.VPs {
		links += len(vr.Links)
	}
	disc := summarize(ph.discoveryMs)
	m.set("bdrmap.busy_s", "s", ph.discovery)
	m.set("bdrmap.runs", "count", float64(disc.n))
	m.set("bdrmap.run_p50_ms", "ms", disc.p50)
	m.set("bdrmap.run_tail_ms", "ms", disc.tail)
	m.set("bdrmap.run_tail_pct", "pct", 100*disc.tailQ)
	m.set("bdrmap.links_per_s", "1/s", ratio(float64(links), ph.discovery))
	m.set("bdrmap.coverage", "ratio", meanCoverage(res))

	// World clock: netsim, queue, trafficmodel, simclock.
	pr := snap.Probe
	m.set("netsim.inject_walks", "count", float64(pr.InjectWalks))
	m.set("netsim.inject_delivered_ratio", "ratio", ratio(float64(pr.InjectDelivered), float64(pr.InjectWalks)))
	m.set("netsim.walks_per_s", "1/s", ratio(float64(pr.InjectWalks), ph.discovery))
	m.set("queue.advance_s", "s", queueAdvance(wl, s, it))
	m.set("queue.frozen_obs", "count", float64(pr.QueueFrozenObs))

	// Probing: prober, packet, the experiments pool.
	var rounds, skipped, samples, missed float64
	for _, y := range res.Yields() {
		rounds += float64(y.Rounds)
		skipped += float64(y.Skipped)
		samples += float64(y.Samples)
		missed += float64(y.Missed)
	}
	busy := 0.0
	for _, w := range snap.Engine.Workers {
		busy += time.Duration(w.BusyNS).Seconds()
	}
	eng := snap.Engine
	m.set("probe.batch_s", "s", ph.batch)
	m.set("probe.probes", "count", float64(pr.Probes))
	m.set("probe.delivered_ratio", "ratio", ratio(float64(pr.Delivered), float64(pr.Probes)))
	m.set("probe.link_rounds_per_s", "1/s", ratio(rounds, ph.batch))
	m.set("engine.worker_busy_share", "ratio", ratio(busy, float64(len(eng.Workers))*ph.probing))
	m.set("engine.barriers", "count", float64(eng.BatchesOpened))
	m.set("engine.mean_batch_steps", "steps", ratio(float64(eng.Flushes+eng.QuiescentSteps), float64(eng.Flushes)))
	m.set("engine.serial_s", "s", ph.probing-ph.nestedDiscovery-ph.batch)

	// Scheduling: budget, faults (absent = 0).
	spend := 0.0
	if res.Cfg.Budget != nil {
		spend = ratio(rounds, rounds+skipped)
	}
	episodes, yield := 0.0, 0.0
	if res.Faults != nil {
		episodes = float64(len(res.Faults.Faults))
		yield = ratio(samples, rounds+missed)
	}
	m.set("budget.spend_share", "ratio", spend)
	m.set("budget.rounds_skipped", "count", skipped)
	m.set("faults.episodes", "count", episodes)
	m.set("faults.sample_yield", "ratio", yield)

	// Collection: tschunk, timeseries, analysis.Collector.
	var series []*timeseries.Series
	raw, encoded, slots := 0, 0, 0
	var resident int64
	for _, vr := range res.VPs {
		for _, lr := range vr.SortedLinks() {
			ls := lr.Collector.Series()
			for _, sr := range []*timeseries.Series{ls.Near, ls.Far} {
				series = append(series, sr)
				slots += sr.Len()
				if sr.Chunked() {
					raw += sr.Chunk().RawSize()
					encoded += sr.Chunk().EncodedSize()
				}
			}
			resident += int64(lr.Collector.MemBytes())
		}
	}
	if len(eng.Shards) > 0 {
		// Sharded collectors seal into shared arenas the engine
		// publishes per shard (arena plus collector state).
		resident = 0
		for _, sh := range eng.Shards {
			resident += sh.ResidentBytes
		}
	}
	present := 0
	t0 := time.Now()
	for _, sr := range series {
		sr.Each(func(_ int, vals []float64) {
			for _, v := range vals {
				if !timeseries.IsMissing(v) {
					present++
				}
			}
		})
	}
	decode := time.Since(t0).Seconds()
	if present == 0 {
		problems = append(problems, "decode sweep saw no present samples")
	}
	m.set("tschunk.bytes_per_link", "B", ratio(float64(resident), float64(links)))
	m.set("tschunk.compression_x", "x", ratio(float64(raw), float64(encoded)))
	m.set("tschunk.decode_s", "s", decode)
	m.set("tschunk.decode_slots_per_s", "1/s", ratio(float64(slots), decode))

	// Analysis: analysis, cusum, levelshift, diurnal — a serial sweep
	// over the same links with one Sweeper, as one engine worker runs.
	sw := analysis.NewSweeper()
	cfg := analysis.DefaultConfig()
	var perLink []float64
	sweep := 0.0
	for _, vr := range res.VPs {
		for _, lr := range vr.SortedLinks() {
			t := time.Now()
			sw.AnalyzeLinkSweep(lr.Collector.Series(), cfg, res.Cfg.Thresholds)
			d := time.Since(t).Seconds()
			sweep += d
			perLink = append(perLink, d*1000)
		}
	}
	al := summarize(perLink)
	an := snap.Analysis
	m.set("analysis.busy_s", "s", ph.analysis)
	m.set("analysis.sweep_s", "s", sweep)
	m.set("analysis.link_p50_ms", "ms", al.p50)
	m.set("analysis.link_tail_ms", "ms", al.tail)
	m.set("analysis.link_tail_pct", "pct", 100*al.tailQ)
	m.set("analysis.fold_reuse_ratio", "ratio", ratio(float64(an.FoldsReused), float64(an.FoldsComputed+an.FoldsReused)))

	// Observatory feed: a replay of the live service's feed on a fresh
	// service over the collected links. Valid only if its alert log
	// equals the live one.
	var feed, finalize time.Duration
	var fed, alerts uint64
	if it.svc != nil {
		rs := observatory.New(observatory.Config{})
		for _, vr := range res.VPs {
			for _, lr := range vr.SortedLinks() {
				rs.Watch(vr.VP.ID, lr.Target, lr.Collector, lr.CaseName,
					lr.Symmetry != nil && !lr.Symmetry.Symmetric)
			}
		}
		iv := res.Cfg.Campaign
		for t := iv.Start.Add(replayCadence); ; t = t.Add(replayCadence) {
			if t > iv.End {
				t = iv.End
			}
			t0 := time.Now()
			rs.ObserveBarrier(t)
			feed += time.Since(t0)
			if t == iv.End {
				break
			}
		}
		t0 := time.Now()
		rs.Finalize(res.Cfg.Thresholds)
		finalize = time.Since(t0)
		fed, alerts = rs.FedSlots(), rs.TotalAlerts()
		live, _ := it.svc.AlertsSince(0, 0, nil)
		replay, _ := rs.AlertsSince(0, 0, nil)
		if !reflect.DeepEqual(live, replay) {
			problems = append(problems, fmt.Sprintf("replayed alert log (%d) differs from the live one (%d)", len(replay), len(live)))
		}
	}
	m.set("observatory.feed_s", "s", feed.Seconds())
	m.set("observatory.feed_ns_per_slot", "ns", ratio(float64(feed.Nanoseconds()), float64(fed)))
	m.set("observatory.fed_slots", "count", float64(fed))
	m.set("observatory.alerts", "count", float64(alerts))
	m.set("observatory.finalize_s", "s", finalize.Seconds())

	// Alert quality against planted truth (observatory-live).
	q := it.quality
	m.set("alert_latency_p50_s", "virtual_s", median(q.lags))
	m.set("alert_latency_n", "count", float64(len(q.lags)))
	m.set("alerted_fraction", "ratio", q.alertedFraction())
	m.set("unplanted_alert_share", "ratio", q.unplantedShare())

	// Tracing: phase accounting.
	campaign := it.campaign.Seconds()
	unattributed := 1 - ph.top/campaign
	m.set("trace.unattributed_share", "ratio", unattributed)
	if d := snap.SpansDropped; d != 0 {
		problems = append(problems, fmt.Sprintf("%d spans dropped", d))
	}
	if math.Abs(unattributed) > unattributedMax {
		problems = append(problems, fmt.Sprintf("phase spans leave %.3f of campaign_s unattributed (tolerance %.2f)", unattributed, unattributedMax))
	}
	fmt.Printf("# phases build+initial-discovery+probing+analysis=%.4fs of campaign_s=%.4fs; discovery=%.4fs probe-batch=%.4fs analysis=%.4fs\n",
		ph.top, campaign, ph.discovery, ph.batch, ph.analysis)
	if len(problems) > 0 {
		return m, errors.New(strings.Join(problems, "; "))
	}
	return m, nil
}

// queueAdvance times Network.AdvanceQueuesBatch over the campaign's
// step grid on a fresh copy of the world, batching between scenario
// events at the engine's batch cap.
func queueAdvance(wl *workload, s seeds, it *iteration) float64 {
	w := wl.build(s)
	cfg := it.res.Cfg
	w.AdvanceTo(cfg.Campaign.Start)
	// Integrate from the world's epoch to the campaign start untimed:
	// the engine pays that catch-up inside initial discovery.
	w.Net.AdvanceQueues(cfg.Campaign.Start)
	var busy time.Duration
	cfg.Campaign.StepBatches(cfg.Step, cfg.BatchSteps,
		w.AdvanceTo,
		func(t simclock.Time) bool {
			ev := w.PendingEvents()
			return len(ev) == 0 || ev[0].At > t
		},
		func(_ int, steps []simclock.Time) {
			w.AdvanceTo(steps[len(steps)-1])
			t0 := time.Now()
			w.Net.AdvanceQueuesBatch(steps)
			busy += time.Since(t0)
		})
	return busy.Seconds()
}

// apiMetrics reports the reader's figures over every request of the
// run. A failed request is filed at the whole window, over any limit.
func apiMetrics(m metrics, samples []apiSample, window time.Duration) {
	var lat, handler, wait, lag []float64
	var bytes int64
	for _, a := range samples {
		l := ms(a.latency)
		if !a.ok {
			l = ms(window)
		}
		lat = append(lat, l)
		lag = append(lag, ms(a.lag))
		bytes += a.bytes
		if a.handler >= 0 {
			handler = append(handler, ms(a.handler))
			wait = append(wait, l-ms(a.handler))
		}
	}
	ld, hd := summarize(lat), summarize(handler)
	m.set("api_p50_ms", "ms", ld.p50)
	m.set("api_p99_ms", "ms", ld.p99)
	m.set("api.requests", "count", float64(len(samples)))
	m.set("api.handler_p50_ms", "ms", hd.p50)
	m.set("api.handler_tail_ms", "ms", hd.tail)
	m.set("api.handler_tail_pct", "pct", 100*hd.tailQ)
	m.set("api.wait_p99_ms", "ms", summarize(wait).p99)
	m.set("api.generator_lag_p99_ms", "ms", summarize(lag).p99)
	m.set("api.bytes_per_req", "B", ratio(float64(bytes), float64(len(samples))))
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}
