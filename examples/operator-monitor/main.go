// Operator monitoring: the paper's §7 takeaway — "ISPs [should]
// carefully monitor their peering links at IXPs to avoid or to
// quickly mitigate congestion" — run as a live system. An online
// monitor consumes TSLP rounds on the QCELL–NETPAGE link across the
// whole arc of its story and prints the alert timeline an operator
// would have received: congestion onset in early March, mitigation
// confirmed days after the 2016-04-28 upgrade.
package main

import (
	"fmt"
	"time"

	"afrixp"
	"afrixp/internal/simclock"
)

func main() {
	world := afrixp.NewWorld(afrixp.WorldOptions{Seed: 23, Scale: 0.1})
	vp, _ := world.VPByID("VP4")
	target := vp.CaseLinks["QCELL-NETPAGE"]
	prober := afrixp.NewProber(world, vp)
	session, err := prober.NewTSLP(target)
	if err != nil {
		panic(err)
	}

	// Watch from the campaign start until well past the upgrade.
	watch := afrixp.Interval{
		Start: afrixp.Date(2016, time.February, 29),
		End:   afrixp.Date(2016, time.June, 1),
	}
	mon := afrixp.NewMonitor(target)

	fmt.Printf("watching %v (QCELL–NETPAGE at SIXP) from %v\n\n", target, watch.Start)
	watch.Steps(5*time.Minute, func(t simclock.Time) {
		world.AdvanceTo(t)
		for _, alert := range mon.Feed(session.Round(t)) {
			switch alert.Kind {
			case afrixp.AlertOnset:
				fmt.Printf("%v  ALERT %-22s magnitude %.1f ms\n",
					alert.At, alert.Kind, alert.MagnitudeMs)
			default:
				fmt.Printf("%v  ALERT %s\n", alert.At, alert.Kind)
			}
		}
	})

	fmt.Printf("\nlink believed congested at watch end: %v\n", mon.Congested())
	fmt.Println("ground truth: NETPAGE's 10 Mbps port congested daily until the")
	fmt.Println("2016-04-28 upgrade to 1 Gbps (operator interview, §6.2.2)")
}
