package monitor

import (
	"testing"
	"time"

	"afrixp/internal/prober"
	"afrixp/internal/scenario"
	"afrixp/internal/simclock"
)

// drive runs a monitor over a case link for an interval, collecting
// alerts.
func drive(t *testing.T, w *scenario.World, vpID, caseName string,
	iv simclock.Interval) []Alert {
	t.Helper()
	vp, ok := w.VPByID(vpID)
	if !ok {
		t.Fatalf("no %s", vpID)
	}
	target, ok := vp.CaseLinks[caseName]
	if !ok {
		t.Fatalf("no case link %s", caseName)
	}
	p := prober.New(w.Net, vp.Node, prober.Config{Name: vp.Monitor})
	session, err := p.NewTSLP(target)
	if err != nil {
		t.Fatal(err)
	}
	m := New(target)
	var alerts []Alert
	iv.Steps(5*time.Minute, func(tm simclock.Time) {
		w.AdvanceTo(tm)
		alerts = append(alerts, m.Feed(session.Round(tm))...)
	})
	return alerts
}

func TestOnsetAlertForNetpage(t *testing.T) {
	w := scenario.Paper(scenario.Options{Seed: 31, Scale: 0.1})
	iv := simclock.Interval{
		Start: simclock.Date(2016, time.March, 1),
		End:   simclock.Date(2016, time.March, 21),
	}
	alerts := drive(t, w, "VP4", "QCELL-NETPAGE", iv)
	var onset *Alert
	for i := range alerts {
		if alerts[i].Kind == Onset {
			onset = &alerts[i]
			break
		}
	}
	if onset == nil {
		t.Fatalf("no onset alert in 3 weeks of congestion: %+v", alerts)
	}
	// Detection latency: the window needs a few days of diurnal
	// evidence plus debouncing — the alert must land within the first
	// ten days.
	if lag := onset.At.Sub(iv.Start); lag > 10*24*time.Hour {
		t.Fatalf("onset alert after %v", lag)
	}
	if onset.MagnitudeMs < 5 {
		t.Fatalf("onset magnitude %.1f", onset.MagnitudeMs)
	}
}

func TestClearedAlertAfterUpgrade(t *testing.T) {
	w := scenario.Paper(scenario.Options{Seed: 31, Scale: 0.1})
	// Straddle the 2016-04-28 upgrade by three weeks each side.
	iv := simclock.Interval{
		Start: simclock.Date(2016, time.April, 7),
		End:   simclock.Date(2016, time.May, 19),
	}
	alerts := drive(t, w, "VP4", "QCELL-NETPAGE", iv)
	var sawOnset, sawCleared bool
	var clearedAt simclock.Time
	for _, a := range alerts {
		switch a.Kind {
		case Onset:
			sawOnset = true
		case Cleared:
			sawCleared = true
			clearedAt = a.At
		}
	}
	if !sawOnset {
		t.Fatalf("no onset before the upgrade: %+v", alerts)
	}
	if !sawCleared {
		t.Fatalf("no cleared alert after the upgrade: %+v", alerts)
	}
	upgrade := simclock.Date(2016, time.April, 28)
	if clearedAt < upgrade {
		t.Fatal("cleared before the upgrade happened")
	}
	if lag := clearedAt.Sub(upgrade); lag > 12*24*time.Hour {
		t.Fatalf("mitigation confirmed only after %v", lag)
	}
}

func TestUnreachableAlertOnShutdown(t *testing.T) {
	w := scenario.Paper(scenario.Options{Seed: 31, Scale: 0.1})
	iv := simclock.Interval{
		Start: simclock.Date(2016, time.August, 1),
		End:   simclock.Date(2016, time.August, 10),
	}
	alerts := drive(t, w, "VP1", "GIXA-GHANATEL", iv)
	var unreach *Alert
	for i := range alerts {
		if alerts[i].Kind == Unreachable {
			unreach = &alerts[i]
		}
	}
	if unreach == nil {
		t.Fatalf("shutdown not alerted: %+v", alerts)
	}
	shutdown := simclock.Date(2016, time.August, 6)
	if unreach.At < shutdown || unreach.At.Sub(shutdown) > 2*24*time.Hour {
		t.Fatalf("unreachable alert at %v, want within 2 days of %v", unreach.At, shutdown)
	}
}

func TestNoAlertsOnCleanLink(t *testing.T) {
	w := scenario.Paper(scenario.Options{Seed: 31, Scale: 0.1})
	vp, _ := w.VPByID("VP4")
	// Probe a clean member instead of NETPAGE: pick any non-case link
	// from a border map.
	p := prober.New(w.Net, vp.Node, prober.Config{Name: vp.Monitor})
	// The SIXP content network port is clean.
	x := w.IXPs["SIXP"]
	target := prober.LinkTarget{Near: vp.NearAddr, Far: x.Members[scenario.ASSixp]}
	session, err := p.NewTSLP(target)
	if err != nil {
		t.Fatal(err)
	}
	m := New(target)
	iv := simclock.Interval{
		Start: simclock.Date(2016, time.March, 1),
		End:   simclock.Date(2016, time.March, 15),
	}
	var alerts []Alert
	iv.Steps(5*time.Minute, func(tm simclock.Time) {
		w.AdvanceTo(tm)
		alerts = append(alerts, m.Feed(session.Round(tm))...)
	})
	if len(alerts) != 0 {
		t.Fatalf("clean link alerted: %+v", alerts)
	}
	if m.Congested() {
		t.Fatal("clean link believed congested")
	}
}

func TestAlertKindString(t *testing.T) {
	if Onset.String() != "congestion-onset" || Cleared.String() != "congestion-cleared" ||
		Unreachable.String() != "far-end-unreachable" {
		t.Fatal("kind names wrong")
	}
}
