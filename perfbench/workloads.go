package main

import (
	"fmt"
	"time"

	"afrixp/internal/budget"
	"afrixp/internal/experiments"
	"afrixp/internal/faults"
	"afrixp/internal/interview"
	"afrixp/internal/observatory"
	"afrixp/internal/scenario"
	"afrixp/internal/simclock"
	"afrixp/internal/worldgen"
)

// seeds are every seed a workload feeds the engine. The world seed
// drives scenario.Paper's noise processes or worldgen's generator (0 is
// the generator's default world, the one experiments.RunScaleSweep
// uses); the budget and fault seeds perturb the probe-budget phase
// hashes and the fault plan (observatory-live only).
type seeds struct {
	World, Budget, Fault uint64
}

// workload is one named campaign the benchmark runs.
type workload struct {
	name string
	// seeds maps the run seed onto the workload's seeds. The run seed
	// varies only what leaves the workload's size alone: a generated
	// world's seed draws its topology, and with it ±7 % of the campaign
	// cost, so generated worlds stay fixed unless --world-seed is set.
	seeds func(run uint64) seeds
	// build constructs the world: the timed set-up.
	build func(s seeds) *scenario.World
	// config returns the campaign knobs; the runner adds BuildWorld,
	// Workers, Telemetry and Observatory.
	config func(s seeds) experiments.Config
	// live attaches the streaming observatory and the API reader.
	live bool
	// check validates one campaign's outputs.
	check func(it *iteration) error
}

// Output-check floors. The continent-discovery coverage floor sits
// below the 1.000 every probed snapshot reaches on the default and
// held-out seeds; the alerted-fraction floor sits below the 21/22 and
// 22/22 the 10× world's planted links reach.
const (
	coverageFloor      = 0.95
	alertedFractionMin = 0.8
	congestThresholdMs = 10
)

// paperCaseLinks must all be congested at 10 ms on paper-season:
// GIXA–GHANATEL phase 1, QCELL–NETPAGE before its upgrade, and the
// TIX/JINX congested members.
var paperCaseLinks = []string{"GIXA-GHANATEL", "QCELL-NETPAGE", "TIX-CONG0", "TIX-CONG1", "JINX-CONG0"}

func days(start simclock.Time, n int) simclock.Interval {
	return simclock.Interval{Start: start, End: start.Add(time.Duration(n) * 24 * time.Hour)}
}

var workloads = []*workload{
	{
		name:  "paper-season",
		seeds: func(run uint64) seeds { return seeds{World: run} },
		build: func(s seeds) *scenario.World {
			return scenario.Paper(scenario.Options{Seed: s.World, Scale: 1})
		},
		config: func(seeds) experiments.Config {
			return experiments.Config{Campaign: days(simclock.Date(2016, time.February, 29), 60)}
		},
		check: checkPaperSeason,
	},
	{
		name:  "continent-discovery",
		seeds: func(uint64) seeds { return seeds{} },
		build: func(s seeds) *scenario.World {
			w := worldgen.Generate(worldgen.Options{Seed: s.World, Scale: 100})
			if len(w.VPs) > continentVPs {
				w.VPs = w.VPs[:continentVPs]
			}
			return w
		},
		config: func(seeds) experiments.Config {
			return experiments.Config{Campaign: days(simclock.Date(2016, time.July, 20), 1), Shards: 4}
		},
		check: checkContinentDiscovery,
	},
	{
		name:  "observatory-live",
		seeds: func(run uint64) seeds { return seeds{World: 7, Budget: run, Fault: run} },
		build: func(s seeds) *scenario.World {
			return worldgen.Generate(worldgen.Options{Seed: s.World, Scale: 10})
		},
		config: func(s seeds) experiments.Config {
			return experiments.Config{
				Campaign: days(simclock.Date(2016, time.July, 20), 7),
				Shards:   2,
				Budget:   &budget.Config{Fraction: 0.5, Seed: s.Budget},
				Faults:   &faults.Config{Seed: s.Fault},
			}
		},
		live:  true,
		check: checkObservatoryLive,
	},
}

// continentVPs is how many of the 100× world's VPs probe, as
// experiments.RunScaleSweep's benchmark setting does.
const continentVPs = 48

func workloadByName(name string) (*workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func checkPaperSeason(it *iteration) error {
	for _, name := range paperCaseLinks {
		var lr *experiments.LinkRecord
		for _, vr := range it.res.VPs {
			if l, ok := vr.CaseLink(name); ok {
				lr = l
				break
			}
		}
		if lr == nil {
			return fmt.Errorf("case link %s not discovered", name)
		}
		if !lr.Verdicts[congestThresholdMs].Congested {
			return fmt.Errorf("case link %s not congested at %d ms", name, congestThresholdMs)
		}
	}
	return nil
}

func checkContinentDiscovery(it *iteration) error {
	if cov := meanCoverage(it.res); cov < coverageFloor {
		return fmt.Errorf("mean snapshot coverage %.4f below floor %.2f", cov, coverageFloor)
	}
	for _, vr := range it.res.VPs {
		if len(vr.Links) == 0 {
			return fmt.Errorf("%s found no links", vr.VP.ID)
		}
	}
	return nil
}

func checkObservatoryLive(it *iteration) error {
	q := it.quality
	if q.alerts == 0 {
		return fmt.Errorf("empty alert log")
	}
	if q.planted == 0 || q.alertedFraction() < alertedFractionMin {
		return fmt.Errorf("alerted fraction %d/%d below floor %.2f", q.alerted, q.planted, alertedFractionMin)
	}
	return nil
}

// meanCoverage averages Snapshot.Coverage over every recorded snapshot.
func meanCoverage(res *experiments.Result) float64 {
	sum, n := 0.0, 0
	for _, vr := range res.VPs {
		for _, s := range vr.Snapshots {
			sum += s.Coverage
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// alertQuality scores the live service's alert log against the world's
// planted ground truth (interview annotations with CongestedTruth).
type alertQuality struct {
	alerts uint64
	// planted counts probed links with planted congestion; alerted
	// those whose stream left "clear". lags are their onset-to-first-
	// alert delays in virtual seconds.
	planted, alerted int
	lags             []float64
	// unplanted counts probed links without planted congestion;
	// falseCongested those whose stream reached "congested".
	unplanted, falseCongested int
}

func (q alertQuality) alertedFraction() float64 {
	if q.planted == 0 {
		return 0
	}
	return float64(q.alerted) / float64(q.planted)
}

func (q alertQuality) unplantedShare() float64 {
	if q.unplanted == 0 {
		return 0
	}
	return float64(q.falseCongested) / float64(q.unplanted)
}

// scoreAlerts mirrors experiments.RunStreamAlertLatency's lag rule:
// onset is the annotation's first congested phase, clamped to the
// campaign start; the alert is the link's first non-clear transition.
func scoreAlerts(res *experiments.Result, svc *observatory.Service) alertQuality {
	alerts, _ := svc.AlertsSince(0, 0, nil)
	q := alertQuality{alerts: svc.TotalAlerts()}
	firstAt := make(map[string]simclock.Time, len(alerts))
	congested := make(map[string]bool)
	for _, a := range alerts {
		if a.To == "congested" {
			congested[a.Link] = true
		}
		if a.To == "clear" {
			continue
		}
		if _, ok := firstAt[a.Link]; !ok {
			firstAt[a.Link] = simclock.Time(a.AtNs)
		}
	}
	start := res.Cfg.Campaign.Start
	for _, vr := range res.VPs {
		for _, lr := range vr.SortedLinks() {
			id := observatory.LinkID(vr.VP.ID, lr.Target)
			ann, ok := res.World.Interviews.Find(vr.VP.ID, lr.Target)
			if !ok || !ann.CongestedTruth {
				q.unplanted++
				if congested[id] {
					q.falseCongested++
				}
				continue
			}
			q.planted++
			at, ok := firstAt[id]
			if !ok {
				continue
			}
			q.alerted++
			onset := start
			for _, ph := range ann.Phases {
				if ph.Cause != interview.CauseNone && ph.Cause != "" {
					if ph.Interval.Start > onset {
						onset = ph.Interval.Start
					}
					break
				}
			}
			q.lags = append(q.lags, at.Sub(onset).Seconds())
		}
	}
	return q
}

// plantedIDs lists the observatory ids of the world's planted
// congested links — the /links/{id} targets of the API reader.
func plantedIDs(w *scenario.World) map[string]bool {
	ids := make(map[string]bool)
	for _, a := range w.Interviews.All() {
		if a.CongestedTruth {
			ids[observatory.LinkID(a.VP, a.Target)] = true
		}
	}
	return ids
}
