// Package sim provides the discrete-event simulation engine underlying the
// DCTCP+ reproduction: a virtual clock with nanosecond resolution, an event
// scheduler with cancellable timers, and a deterministic pseudo-random
// number generator.
//
// The scheduler's queue is split by scheduling delay: a sorted near run for
// the microsecond packet-hop events that make up nine fires in ten, which
// are scheduled close to firing order and leave from the run's head, and a
// far binary heap for the RTO timers and pacing gates that sit parked for
// milliseconds, so the per-packet cycle neither sifts nor meets thousands
// of timers. Both sides order by (when, seq) and the scheduler fires the
// smaller minimum, so events fire in exactly the order one heap would
// give; see Scheduler.
//
// All protocol and network models in this repository are driven exclusively
// by this engine; no wall-clock time is consulted anywhere, so a run is a
// pure function of its configuration and seed.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, measured in integer nanoseconds since the
// start of the simulation. The zero Time is the simulation epoch.
//
// int64 nanoseconds give a range of roughly 292 years, far beyond any
// simulated experiment; arithmetic never needs to worry about overflow in
// practice.
type Time int64

// Duration is a span of virtual time in nanoseconds. It mirrors
// time.Duration so the familiar unit constants can be used, but it is a
// distinct type to keep virtual and wall-clock time from mixing.
type Duration int64

// Convenient duration units, matching time package semantics.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Infinity is a time later than any event a simulation will ever schedule.
const Infinity Time = 1<<63 - 1

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Seconds returns the time as a floating-point number of seconds since the
// simulation epoch.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Micros returns the time as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// String formats the time as seconds with microsecond precision.
func (t Time) String() string {
	if t == Infinity {
		return "+inf"
	}
	return fmt.Sprintf("%.6fs", t.Seconds())
}

// Seconds returns the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Micros returns the duration as floating-point microseconds.
func (d Duration) Micros() float64 { return float64(d) / 1e3 }

// Millis returns the duration as floating-point milliseconds.
func (d Duration) Millis() float64 { return float64(d) / 1e6 }

// String formats the duration using the standard library's rendering.
func (d Duration) String() string { return time.Duration(d).String() }

// Scale returns d scaled by the factor f, rounding toward zero.
func (d Duration) Scale(f float64) Duration { return Duration(float64(d) * f) }
