package sim

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds collided %d/1000 times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(99)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGDuration(t *testing.T) {
	r := NewRNG(11)
	d := Duration(100 * Microsecond)
	for i := 0; i < 10000; i++ {
		v := r.Duration(d)
		if v < 0 || v >= d {
			t.Fatalf("Duration out of range: %v", v)
		}
	}
	if r.Duration(0) != 0 || r.Duration(-5) != 0 {
		t.Error("non-positive Duration should return 0")
	}
}

// Property: the mean of random(backoff_time_unit) draws approaches unit/2,
// which is what makes the paper's AIMD backoff average to unit/2 per step.
func TestRNGDurationMean(t *testing.T) {
	r := NewRNG(2026)
	unit := Duration(100 * Microsecond)
	var sum Duration
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Duration(unit)
	}
	mean := float64(sum) / n
	want := float64(unit) / 2
	if math.Abs(mean-want)/want > 0.02 {
		t.Errorf("mean draw = %v, want ~%v", mean, want)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(314)
	mean := Duration(1 * Millisecond)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += float64(r.Exp(mean))
	}
	got := sum / n
	if math.Abs(got-float64(mean))/float64(mean) > 0.02 {
		t.Errorf("exp mean = %v, want ~%v", got, float64(mean))
	}
	if r.Exp(0) != 0 {
		t.Error("Exp(0) should be 0")
	}
}

func TestRNGParetoBounds(t *testing.T) {
	r := NewRNG(8)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(1e3, 1e6, 1.1)
		if v < 1e3-1 || v > 1e6+1 {
			t.Fatalf("Pareto out of bounds: %v", v)
		}
	}
	if r.Pareto(0, 10, 1) != 0 {
		t.Error("degenerate Pareto lo<=0 should return lo")
	}
	if r.Pareto(10, 5, 1) != 10 {
		t.Error("degenerate Pareto hi<=lo should return lo")
	}
}

func TestRNGParetoHeavyTail(t *testing.T) {
	// With alpha close to 1, the empirical mean should sit well above the
	// median — a sanity check that we actually get a heavy tail.
	r := NewRNG(77)
	const n = 50000
	vals := make([]float64, n)
	var sum float64
	for i := range vals {
		vals[i] = r.Pareto(1e3, 1e8, 1.05)
		sum += vals[i]
	}
	mean := sum / n
	// Median of bounded pareto with these params is near lo*2^(1/alpha).
	below := 0
	for _, v := range vals {
		if v < mean {
			below++
		}
	}
	if float64(below)/n < 0.75 {
		t.Errorf("expected heavy tail (most samples below mean); below=%d/%d", below, n)
	}
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(0).Add(100 * Microsecond)
	if tm != Time(100_000) {
		t.Errorf("Add = %v", tm)
	}
	if tm.Sub(Time(40_000)) != 60*Microsecond {
		t.Error("Sub wrong")
	}
	if !Time(5).Before(Time(6)) || !Time(6).After(Time(5)) {
		t.Error("Before/After wrong")
	}
	if Time(1_500_000_000).Seconds() != 1.5 {
		t.Error("Seconds wrong")
	}
	if Duration(1500).Micros() != 1.5 {
		t.Error("Micros wrong")
	}
	if (2 * Millisecond).Millis() != 2 {
		t.Error("Millis wrong")
	}
	if Infinity.String() != "+inf" {
		t.Error("Infinity string")
	}
	if (100 * Microsecond).Scale(0.5) != 50*Microsecond {
		t.Error("Scale wrong")
	}
}
