// Package check provides always-on runtime invariant assertions for the
// simulator's hot layers. Each assertion is a single comparison plus a
// panic on violation — cheap enough to leave enabled in experiments and
// benchmarks, where a silently corrupted queue depth or a negative
// slow_time would otherwise surface as a subtly wrong figure instead of a
// crash with a culprit.
//
// This package checks the quantities the type system cannot see — value
// ranges. A bounded field's range is stated in its doc comment and enforced
// by an assertion here or by a guard on its only increment, and each owning
// package's TestRuntimeTwinsFire corrupts the field to show the assertion
// is live.
//
// All assertions funnel through Failf so every violation message carries
// the same greppable "invariant violated" prefix.
package check

import (
	"fmt"

	"dctcpplus/internal/sim"
)

// Failf panics with a uniform invariant-violation message.
func Failf(format string, args ...any) {
	panic("check: invariant violated: " + fmt.Sprintf(format, args...))
}

// NonNegative asserts an integer quantity (queue depth, inflight bytes)
// has not gone negative.
func NonNegative(what string, v int64) {
	if v < 0 {
		Failf("%s = %d, want >= 0", what, v)
	}
}

// AtMost asserts an integer quantity stays within its upper bound (buffer
// occupancy vs. capacity, received bytes vs. requested bytes).
func AtMost(what string, v, max int64) {
	if v > max {
		Failf("%s = %d, want <= %d", what, v, max)
	}
}

// Unit asserts a fraction stays in [0, 1] — DCTCP's congestion-extent
// estimate alpha, marking probabilities. The negated form catches NaN.
func Unit(what string, v float64) {
	if !(v >= 0 && v <= 1) {
		Failf("%s = %v, want [0, 1]", what, v)
	}
}

// AtLeast asserts a float quantity stays at or above its floor (the
// congestion window never drops below the 1-MSS loss window). The negated
// form catches NaN.
func AtLeast(what string, v, min float64) {
	if !(v >= min) {
		Failf("%s = %v, want >= %v", what, v, min)
	}
}

// NonNegativeDur asserts a duration (slow_time, pacing delay) has not
// gone negative.
func NonNegativeDur(what string, d sim.Duration) {
	if d < 0 {
		Failf("%s = %v, want >= 0", what, d)
	}
}

// ZeroDur asserts a duration is exactly zero — Algorithm 1 disengages
// slow_time entirely in DCTCP_NORMAL.
func ZeroDur(what string, d sim.Duration) {
	if d != 0 {
		Failf("%s = %v, want 0", what, d)
	}
}
