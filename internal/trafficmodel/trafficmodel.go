// Package trafficmodel provides deterministic offered-load processes
// that drive the fluid queues: diurnal waveforms with weekday/weekend
// modulation, day-to-day amplitude jitter, additive noise, and
// piecewise schedules for the timed events in the paper's case studies
// (transit shutdowns, demand surges, capacity upgrades).
//
// All stochastic texture is derived by hashing (seed, time) rather than
// consuming a shared random stream, so a load function can be evaluated
// at any instant, any number of times, and always returns the same
// value — a requirement for the lazily-integrated queue model.
package trafficmodel

import (
	"math"
	"sync"
	"time"

	"afrixp/internal/simclock"
)

// Load is an offered-load process: bits per second at virtual time t.
// Implementations must be pure functions of t.
type Load func(simclock.Time) float64

// Constant returns a flat load.
func Constant(bps float64) Load {
	return func(simclock.Time) float64 { return bps }
}

// Diurnal describes the canonical daily demand waveform observed on
// access and peering links: a floor at night, a smooth rise through
// the morning, a peak in the afternoon/evening, and a dip around
// midnight (the GIXA–KNET series in the paper shows "an obvious
// decrease everyday around midnight").
type Diurnal struct {
	// BaseBps is the overnight floor.
	BaseBps float64
	// PeakBps is the weekday peak (the waveform maximum).
	PeakBps float64
	// PeakHour is the UTC hour of the daily maximum, e.g. 14.5.
	PeakHour float64
	// Width controls how broad the daily peak is, in hours. Larger
	// values yield longer congestion events (Δt_UD in the paper).
	Width float64
	// WeekendFactor scales (PeakBps-BaseBps) on Saturdays and Sundays;
	// the zero value means no weekend modulation. GIXA–GHANATEL and
	// QCELL–NETPAGE both showed visibly lower weekend amplitudes;
	// KNET's pattern was day-type independent.
	WeekendFactor float64
	// DayJitterFrac, if positive, scales each day's amplitude by a
	// deterministic per-day factor in [1-f, 1+f], reproducing the
	// "different amplitudes over roughly 5 months" texture of Fig. 1.
	DayJitterFrac float64
	// NoiseFrac, if positive, adds relative noise at 1-minute
	// granularity.
	NoiseFrac float64
	// Seed decorrelates jitter across links.
	Seed uint64
}

// Bps implements the Load signature. It is the reference the tabulated
// Load must reproduce bit for bit.
func (d Diurnal) Bps(t simclock.Time) float64 {
	return d.scale(t, d.shape(t.HourOfDay()))
}

// shape is the waveform's relative height at hour h: 1 at the peak,
// falling off as a Gaussian of the wrapped distance to PeakHour.
func (d Diurnal) shape(h float64) float64 {
	// Wrapped distance to the peak hour in [-12, 12).
	dist := math.Mod(h-d.PeakHour+36, 24) - 12
	w := d.Width
	if w <= 0 {
		w = 3
	}
	return math.Exp(-dist * dist / (2 * w * w))
}

// scale turns the shape at t into bits per second: the day's
// amplitude (weekend factor, day jitter) over the floor, then the
// per-minute noise.
func (d Diurnal) scale(t simclock.Time, shape float64) float64 {
	amp := d.PeakBps - d.BaseBps
	if t.IsWeekend() {
		f := d.WeekendFactor
		if f == 0 {
			f = 1 // zero value means "no weekend modulation"
		}
		amp *= f
	}
	if d.DayJitterFrac > 0 {
		u := hashUnit(d.Seed, uint64(t.Day()))
		amp *= 1 + d.DayJitterFrac*(2*u-1)
	}
	v := d.BaseBps + amp*shape
	if d.NoiseFrac > 0 {
		minute := uint64(time.Duration(t) / time.Minute)
		u := hashUnit(d.Seed^0x9E3779B97F4A7C15, minute)
		v *= 1 + d.NoiseFrac*(2*u-1)
	}
	if v < 0 {
		v = 0
	}
	return v
}

// gridSec is the fluid queue's default integration step in seconds;
// the tabulated Load serves the shape of every instant whose
// second-of-day is a multiple of it.
const gridSec = 30

// Load adapts the Diurnal to the Load type. Fluid queues call it at
// every 30 s integration step, and the Gaussian shape is most of that
// cost, so the returned load reads the shape from a table over the
// 2880 grid seconds of a day. The shape depends on t only through
// HourOfDay, which is float64(SecondOfDay())/3600: an entry built from
// the same integer second by the same shape is the direct value bit
// for bit. Other instants take the direct path. The table is built on
// first use, once, even under concurrent frozen observers, so building
// a world costs nothing extra.
func (d Diurnal) Load() Load {
	var once sync.Once
	var table *[86400 / gridSec]float64
	build := func() {
		table = new([86400 / gridSec]float64)
		for i := range table {
			table[i] = d.shape(float64(i*gridSec) / 3600)
		}
	}
	return func(t simclock.Time) float64 {
		sec := t.SecondOfDay()
		if sec%gridSec != 0 {
			return d.Bps(t)
		}
		once.Do(build)
		return d.scale(t, table[sec/gridSec])
	}
}

// Sum superimposes several load processes.
func Sum(loads ...Load) Load {
	return func(t simclock.Time) float64 {
		var v float64
		for _, l := range loads {
			v += l(t)
		}
		return v
	}
}

// Scale multiplies a load by k.
func Scale(l Load, k float64) Load {
	return func(t simclock.Time) float64 { return l(t) * k }
}

// Schedule is a piecewise load: the latest phase whose start is ≤ t
// applies. Phases must be appended in chronological order.
type Schedule struct {
	starts []simclock.Time
	loads  []Load
}

// NewSchedule starts with an initial phase active from the beginning
// of time.
func NewSchedule(initial Load) *Schedule {
	return &Schedule{starts: []simclock.Time{math.MinInt64}, loads: []Load{initial}}
}

// At switches to load l from time t onward. Panics if t precedes the
// previous phase start — schedules are authored chronologically.
func (s *Schedule) At(t simclock.Time, l Load) *Schedule {
	if t < s.starts[len(s.starts)-1] {
		panic("trafficmodel: schedule phases must be chronological")
	}
	s.starts = append(s.starts, t)
	s.loads = append(s.loads, l)
	return s
}

// Bps evaluates the schedule. Binary search keeps long schedules cheap.
func (s *Schedule) Bps(t simclock.Time) float64 {
	lo, hi := 0, len(s.starts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.starts[mid] <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return s.loads[lo](t)
}

// Load adapts the schedule to the Load type.
func (s *Schedule) Load() Load { return s.Bps }

// Spike returns a load that is bps during [start, end) and zero
// elsewhere — a transient demand surge.
func Spike(start, end simclock.Time, bps float64) Load {
	return func(t simclock.Time) float64 {
		if t >= start && t < end {
			return bps
		}
		return 0
	}
}

// hashUnit maps (seed, n) to a uniform float64 in [0, 1) via
// SplitMix64, giving deterministic repeatable "noise".
func hashUnit(seed, n uint64) float64 {
	z := seed + n*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}
