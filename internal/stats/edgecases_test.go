package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// These tests pin the percentile edge cases the telemetry exporters and
// figure renderers rely on: empty sets, single samples, and the guarantee
// that no NaN input can leak into a summary, quantile or CDF.

func TestSummarizeSingleSample(t *testing.T) {
	s := Summarize([]float64{7.5})
	if s.Count != 1 {
		t.Fatalf("count = %d", s.Count)
	}
	for name, v := range map[string]float64{
		"mean": s.Mean, "min": s.Min, "max": s.Max,
		"p50": s.P50, "p95": s.P95, "p99": s.P99,
	} {
		if v != 7.5 {
			t.Errorf("%s = %v, want 7.5", name, v)
		}
	}
	if s.Std != 0 {
		t.Errorf("std = %v, want 0", s.Std)
	}
}

func TestSummarizeDropsNaN(t *testing.T) {
	nan := math.NaN()
	s := Summarize([]float64{1, nan, 3, nan, 5})
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3 (NaNs discarded)", s.Count)
	}
	if s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Errorf("summary with NaNs dropped = %+v", s)
	}
	// All-NaN input degenerates to the empty summary, not a NaN-poisoned one.
	all := Summarize([]float64{nan, nan})
	if all != (Summary{}) {
		t.Errorf("all-NaN summary = %+v, want zero", all)
	}
}

func TestQuantileDropsNaN(t *testing.T) {
	nan := math.NaN()
	if got := Quantile([]float64{nan, 10, 0, nan}, 0.5); got != 5 {
		t.Errorf("median with NaNs = %v, want 5", got)
	}
	if got := Quantile([]float64{nan}, 0.5); got != 0 {
		t.Errorf("all-NaN quantile = %v, want 0", got)
	}
}

func TestCDFDropsNaN(t *testing.T) {
	nan := math.NaN()
	c := NewCDF([]float64{nan, 1, 2, nan, 3, 4})
	if c.Len() != 4 {
		t.Fatalf("len = %d, want 4", c.Len())
	}
	if got := c.Quantile(0.5); got != 2.5 {
		t.Errorf("q0.5 = %v, want 2.5", got)
	}
	if got := c.Quantile(1); got != 4 {
		t.Errorf("q1 = %v, want 4", got)
	}
	empty := NewCDF([]float64{nan})
	if empty.Len() != 0 || empty.Quantile(0.5) != 0 {
		t.Error("all-NaN CDF must behave as empty")
	}
}

// Property: no finite-or-NaN input mix ever produces a NaN in the summary
// fields the reports print.
func TestSummaryNaNFreeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var data []float64
		for _, v := range raw {
			if math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				continue // magnitude-capped like the sim's measurements
			}
			data = append(data, v) // NaNs pass through on purpose
		}
		s := Summarize(data)
		for _, v := range []float64{s.Mean, s.Std, s.Min, s.Max, s.P50, s.P95, s.P99} {
			if math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuantileOutOfRangeClamps(t *testing.T) {
	data := []float64{1, 2, 3}
	if got := Quantile(data, -0.5); got != 1 {
		t.Errorf("q<0 = %v, want min", got)
	}
	if got := Quantile(data, 1.5); got != 3 {
		t.Errorf("q>1 = %v, want max", got)
	}
}

func TestSummarizeTwoSamplesInterpolation(t *testing.T) {
	s := Summarize([]float64{0, 100})
	if s.P50 != 50 {
		t.Errorf("p50 = %v, want 50", s.P50)
	}
	if !almost(s.P95, 95, 1e-9) || !almost(s.P99, 99, 1e-9) {
		t.Errorf("p95 = %v p99 = %v", s.P95, s.P99)
	}
}
