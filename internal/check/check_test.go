package check

import (
	"math"
	"strings"
	"testing"

	"dctcpplus/internal/sim"
)

// mustPanic runs fn and asserts it panics with the invariant prefix.
func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: expected panic, got none", name)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "invariant violated") {
			t.Fatalf("%s: panic %v lacks the invariant prefix", name, r)
		}
	}()
	fn()
}

func TestPassingAssertions(t *testing.T) {
	NonNegative("n", 0)
	NonNegative("n", 42)
	AtMost("n", 7, 7)
	Unit("f", 0)
	Unit("f", 1)
	Unit("f", 0.5)
	AtLeast("w", 1, 1)
	AtLeast("w", 2.5, 1)
	NonNegativeDur("d", 0)
	NonNegativeDur("d", sim.Millisecond)
	ZeroDur("d", 0)
}

func TestFailingAssertions(t *testing.T) {
	mustPanic(t, "NonNegative", func() { NonNegative("n", -1) })
	mustPanic(t, "AtMost", func() { AtMost("n", 8, 7) })
	mustPanic(t, "Unit/low", func() { Unit("f", -0.01) })
	mustPanic(t, "Unit/high", func() { Unit("f", 1.01) })
	mustPanic(t, "Unit/nan", func() { Unit("f", math.NaN()) })
	mustPanic(t, "AtLeast", func() { AtLeast("w", 0.99, 1) })
	mustPanic(t, "AtLeast/nan", func() { AtLeast("w", math.NaN(), 1) })
	mustPanic(t, "NonNegativeDur", func() { NonNegativeDur("d", -1) })
	mustPanic(t, "ZeroDur", func() { ZeroDur("d", sim.Microsecond) })
}
