package experiments

import (
	"sort"
	"time"

	"afrixp/internal/budget"
	"afrixp/internal/interview"
	"afrixp/internal/monitor"
	"afrixp/internal/observatory"
	"afrixp/internal/prober"
	"afrixp/internal/scenario"
	"afrixp/internal/simclock"
	"afrixp/internal/timeseries"
	"afrixp/internal/worldgen"
)

// AlertLatency is one case link's online-detection timing: how long
// after congestion truly started (per the operator annotation) the
// monitor raised its onset alert, and — when the scenario mitigates
// the link — how long after the fix the cleared alert confirmed it.
type AlertLatency struct {
	Case string
	// OnsetLag is alert time − true congestion start; negative means
	// never alerted (Alerted false).
	Alerted  bool
	OnsetLag simclock.Duration
	// ClearedLag is confirmation time − mitigation time, when the
	// link was mitigated during the watch window.
	Cleared    bool
	ClearedLag simclock.Duration
}

// RunAlertLatency drives the online monitor over the QCELL–NETPAGE
// story (truth: congested from the campaign start, mitigated
// 2016-04-28) and the GIXA–GHANATEL phase 1, reporting detection
// latencies. It quantifies the §7 claim that monitoring would let
// ISPs "quickly mitigate the occurrence of congestion".
func RunAlertLatency(opts scenario.Options) ([]AlertLatency, error) {
	type spec struct {
		name      string
		vp        string
		truthFrom simclock.Time
		mitigated simclock.Time // zero when never mitigated in-window
		watch     simclock.Interval
	}
	specs := []spec{
		{name: "QCELL-NETPAGE", vp: "VP4",
			truthFrom: simclock.Date(2016, time.February, 29),
			mitigated: simclock.Date(2016, time.April, 28),
			watch: simclock.Interval{Start: simclock.Date(2016, time.February, 29),
				End: simclock.Date(2016, time.May, 26)}},
		{name: "GIXA-GHANATEL", vp: "VP1",
			truthFrom: simclock.Date(2016, time.March, 3),
			watch: simclock.Interval{Start: simclock.Date(2016, time.March, 1),
				End: simclock.Date(2016, time.April, 5)}},
	}

	var out []AlertLatency
	for _, sp := range specs {
		w := scenario.Paper(opts)
		vp, _ := w.VPByID(sp.vp)
		target, ok := vp.CaseLinks[sp.name]
		if !ok {
			continue
		}
		p := prober.New(w.Net, vp.Node, prober.Config{Name: vp.Monitor})
		session, err := p.NewTSLP(target)
		if err != nil {
			return nil, err
		}
		m := monitor.New(target)
		al := AlertLatency{Case: sp.name}
		w.AdvanceTo(sp.watch.Start)
		sp.watch.Steps(5*time.Minute, func(t simclock.Time) {
			w.AdvanceTo(t)
			for _, a := range m.Feed(session.Round(t)) {
				switch a.Kind {
				case monitor.Onset:
					if !al.Alerted {
						al.Alerted = true
						al.OnsetLag = a.At.Sub(sp.truthFrom)
					}
				case monitor.Cleared:
					if sp.mitigated > 0 && !al.Cleared && a.At >= sp.mitigated {
						al.Cleared = true
						al.ClearedLag = a.At.Sub(sp.mitigated)
					}
				}
			}
		})
		out = append(out, al)
	}
	return out, nil
}

// StreamAlertLatency is the streaming observatory's detection-lag
// distribution over planted ground truth at one probe-budget fraction:
// how long of virtual time passed between annotated congestion onset
// and the first streaming alert (any transition out of "clear") on
// each truly-congested link.
type StreamAlertLatency struct {
	// Budget is the probe-budget fraction this row ran under.
	Budget float64
	// Truth counts the annotated congested links the campaign probed.
	Truth int
	// Alerted counts those whose streaming detector raised any alert.
	Alerted int
	// P50/P95 are virtual-time lag quantiles over the alerted links.
	P50, P95 simclock.Duration
}

// RunStreamAlertLatency measures the observatory's alert latency on a
// 10× generated world: one 7-day campaign per budget fraction with the
// streaming service attached, lag measured per annotated congested
// link from ground-truth onset (the annotation's first congested
// phase, clamped to the campaign start) to the first streaming alert.
// Where RunAlertLatency times the per-link window monitor on the two
// paper case studies, this times the campaign-wide streaming detector
// on planted truth — and quantifies what probing at half budget costs
// in notification delay.
func RunStreamAlertLatency(budgets []float64) []StreamAlertLatency {
	iv := simclock.Interval{
		Start: simclock.Date(2016, time.July, 20),
		End:   simclock.Date(2016, time.July, 27),
	}
	out := make([]StreamAlertLatency, 0, len(budgets))
	for _, frac := range budgets {
		svc := observatory.New(observatory.Config{})
		res := Run(Config{
			BuildWorld: func() *scenario.World {
				return worldgen.Generate(worldgen.Options{Seed: 7, Scale: 10})
			},
			Campaign:    iv,
			Workers:     8,
			Shards:      2,
			Budget:      &budget.Config{Fraction: frac, Seed: 1},
			Observatory: svc,
		})

		// First alert per link, one pass over the ordered log.
		alerts, _ := svc.AlertsSince(0, 0, nil)
		firstAt := make(map[string]simclock.Time, len(alerts))
		for _, a := range alerts {
			if a.To == "clear" {
				continue
			}
			if _, ok := firstAt[a.Link]; !ok {
				firstAt[a.Link] = simclock.Time(a.AtNs)
			}
		}

		row := StreamAlertLatency{Budget: frac}
		var lags []float64
		for _, vr := range res.VPs {
			for _, lr := range vr.SortedLinks() {
				ann, ok := res.World.Interviews.Find(vr.VP.ID, lr.Target)
				if !ok || !ann.CongestedTruth {
					continue
				}
				row.Truth++
				at, ok := firstAt[observatory.LinkID(vr.VP.ID, lr.Target)]
				if !ok {
					continue
				}
				row.Alerted++
				onset := iv.Start
				for _, ph := range ann.Phases {
					if ph.Cause != interview.CauseNone && ph.Cause != "" {
						if ph.Interval.Start > onset {
							onset = ph.Interval.Start
						}
						break
					}
				}
				lags = append(lags, float64(at.Sub(onset)))
			}
		}
		if len(lags) > 0 {
			sort.Float64s(lags)
			row.P50 = simclock.Duration(timeseries.QuantileSorted(lags, 0.5))
			row.P95 = simclock.Duration(timeseries.QuantileSorted(lags, 0.95))
		}
		out = append(out, row)
	}
	return out
}
