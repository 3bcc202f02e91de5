package stats

import (
	"math"
	"reflect"
	"testing"
)

// TestSummaryCountWidth pins Summary.Count to int64. It used to be int,
// and the Welford int64 tally was narrowed into it through int(...) —
// correct on 64-bit hosts, silently truncating on 32-bit ones. A width
// regression reintroduces that portability bug even if every value-level
// test below still passes on a 64-bit CI host.
func TestSummaryCountWidth(t *testing.T) {
	f, ok := reflect.TypeOf(Summary{}).FieldByName("Count")
	if !ok {
		t.Fatal("Summary has no Count field")
	}
	if f.Type.Kind() != reflect.Int64 {
		t.Errorf("Summary.Count is %s, want int64 (32-bit hosts truncate larger tallies)", f.Type)
	}
}

// TestWelfordCountBeyondInt32 drives the accumulator sweep.Group folds into
// with a sample count past the 32-bit boundary, and checks NaN samples are
// discarded at Add. The tally is seeded white-box: folding 2^31 real
// samples is not a unit test.
func TestWelfordCountBeyondInt32(t *testing.T) {
	var w Welford
	for i := 0; i < 8; i++ {
		w.Add(float64(i))
	}
	w.Add(math.NaN())
	if w.N() != 8 || w.Mean() != 3.5 {
		t.Errorf("after 0..7 and a NaN: N = %d, mean = %v; want 8, 3.5 (NaN must not count)", w.N(), w.Mean())
	}
	const n = int64(math.MaxInt32) + 7
	w.n = n
	if w.N() != n {
		t.Errorf("N() = %d, want %d (narrowed through a 32-bit conversion?)", w.N(), n)
	}
}
