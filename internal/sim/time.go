// Package sim provides the discrete-event simulation engine used by every
// timing model in this repository: a deterministic event queue, a picosecond
// time base, and clock-domain helpers for the CPU (2.9 GHz) and MTTOP
// (600 MHz) domains described in Table 2 of the paper.
package sim

import "fmt"

// Time is an absolute simulated time in picoseconds.
//
// A picosecond base lets the 2.9 GHz CPU domain and the 600 MHz MTTOP domain
// coexist on one integer timeline with no rounding surprises: one CPU cycle is
// 345 ps and one MTTOP cycle is 1667 ps.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration int64

// Common duration units.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns t shifted forward by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from earlier to t.
func (t Time) Sub(earlier Time) Duration { return Duration(t - earlier) }

// Nanoseconds reports the time as a float64 number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Seconds reports the time as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit.
func (t Time) String() string { return Duration(t).String() }

// Nanoseconds reports the duration as a float64 number of nanoseconds.
func (d Duration) Nanoseconds() float64 { return float64(d) / float64(Nanosecond) }

// Seconds reports the duration as a float64 number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the duration with an adaptive unit.
func (d Duration) String() string {
	switch {
	case d < Nanosecond:
		return fmt.Sprintf("%dps", int64(d))
	case d < Microsecond:
		return fmt.Sprintf("%.3fns", float64(d)/float64(Nanosecond))
	case d < Millisecond:
		return fmt.Sprintf("%.3fus", float64(d)/float64(Microsecond))
	case d < Second:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", float64(d)/float64(Second))
	}
}

// Clock describes one clock domain by its period.
type Clock struct {
	// Period is the duration of one cycle in this domain.
	Period Duration
	// Name identifies the domain in stats and traces.
	Name string
}

// NewClock builds a clock from a frequency in hertz. The period is rounded to
// the nearest picosecond.
func NewClock(name string, hz float64) Clock {
	if hz <= 0 {
		panic(fmt.Sprintf("sim: non-positive clock frequency %v for %q", hz, name))
	}
	period := Duration(float64(Second)/hz + 0.5)
	if period < 1 {
		period = 1
	}
	return Clock{Period: period, Name: name}
}

// Cycles converts a cycle count in this domain into a duration.
func (c Clock) Cycles(n int64) Duration { return Duration(n) * c.Period }
