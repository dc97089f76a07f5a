package main

import (
	"sort"
	"time"

	"afrixp/internal/timeseries"
)

// tailLadder is the percentile ladder tail metrics pick from.
var tailLadder = []float64{0.5, 0.75, 0.9, 0.95, 0.99, 0.999}

// distribution summarizes samples as a median and a tail: the highest
// ladder percentile with at least ten samples beyond it (the median
// when there are fewer than twenty samples). Every field is 0 without
// samples.
type distribution struct {
	n              int
	p50, tail, p99 float64
	tailQ          float64
}

func summarize(samples []float64) distribution {
	d := distribution{n: len(samples)}
	if len(samples) == 0 {
		return d
	}
	d.tailQ = tailLadder[0]
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	for _, q := range tailLadder {
		if float64(len(s))*(1-q) >= 10 {
			d.tailQ = q
		}
	}
	d.p50 = timeseries.QuantileSorted(s, 0.5)
	d.tail = timeseries.QuantileSorted(s, d.tailQ)
	d.p99 = timeseries.QuantileSorted(s, 0.99)
	return d
}

func median(samples []float64) float64 { return summarize(samples).p50 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0 (a layer absent from the workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
