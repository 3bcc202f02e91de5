package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.Mean != 0 || s.P99 != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Count != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Errorf("summary = %+v", s)
	}
	if !almost(s.Std, math.Sqrt(2), 1e-9) {
		t.Errorf("std = %v, want sqrt(2)", s.Std)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{5, 1, 3}
	Summarize(in)
	if in[0] != 5 || in[1] != 1 || in[2] != 3 {
		t.Error("input mutated")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	data := []float64{0, 10}
	if got := Quantile(data, 0.5); got != 5 {
		t.Errorf("median of {0,10} = %v", got)
	}
	if got := Quantile(data, 0); got != 0 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(data, 1); got != 10 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single-sample quantile = %v", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}

// Property: percentiles are monotone and bounded by min/max.
func TestSummaryOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var data []float64
		for _, v := range raw {
			// Restrict to measurement-scale magnitudes; at 1e308 even
			// stable accumulators overflow on differences.
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				data = append(data, v)
			}
		}
		if len(data) == 0 {
			return true
		}
		s := Summarize(data)
		return s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 &&
			s.P99 <= s.Max && s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCDFQuantileInverse(t *testing.T) {
	var data []float64
	for i := 1; i <= 100; i++ {
		data = append(data, float64(i))
	}
	c := NewCDF(data)
	if got := c.Quantile(0.95); !almost(got, 95.05, 0.1) {
		t.Errorf("q95 = %v", got)
	}
	if c.Len() != 100 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestHistBasics(t *testing.T) {
	h := NewHist()
	h.Add(2)
	h.Add(2)
	h.Add(5)
	h.Add(1)
	h.Add(1)
	if h.Total() != 5 {
		t.Errorf("total = %d", h.Total())
	}
	if h.Count(2) != 2 || h.Count(1) != 2 || h.Count(5) != 1 {
		t.Error("counts wrong")
	}
	if !almost(h.Frac(2), 0.4, 1e-12) {
		t.Errorf("frac(2) = %v", h.Frac(2))
	}
	bins := h.Bins()
	if !sort.IntsAreSorted(bins) || len(bins) != 3 {
		t.Errorf("bins = %v", bins)
	}
	if NewHist().Frac(1) != 0 {
		t.Error("empty hist fraction not 0")
	}
}

func TestHistMerge(t *testing.T) {
	a, b := NewHist(), NewHist()
	a.Add(1)
	b.Add(1)
	b.Add(2)
	a.Merge(b)
	if a.Total() != 3 || a.Count(1) != 2 || a.Count(2) != 1 {
		t.Errorf("merged = total %d", a.Total())
	}
}

func TestWelfordMatchesSummarize(t *testing.T) {
	data := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	var w Welford
	for _, v := range data {
		w.Add(v)
	}
	s := Summarize(data)
	if !almost(w.Mean(), s.Mean, 1e-9) {
		t.Errorf("mean %v vs %v", w.Mean(), s.Mean)
	}
	if !almost(w.Std(), s.Std, 1e-9) {
		t.Errorf("std %v vs %v", w.Std(), s.Std)
	}
	if w.N() != 10 {
		t.Errorf("n = %d", w.N())
	}
	var empty Welford
	if empty.Var() != 0 || empty.Mean() != 0 {
		t.Error("empty welford nonzero")
	}
}

// Property: Welford mean/std equal batch mean/std for any sample set.
func TestWelfordProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var data []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9 {
				data = append(data, v)
			}
		}
		if len(data) == 0 {
			return true
		}
		var w Welford
		for _, v := range data {
			w.Add(v)
		}
		s := Summarize(data)
		scale := math.Max(1, math.Abs(s.Mean))
		return almost(w.Mean(), s.Mean, 1e-6*scale) && almost(w.Std(), s.Std, 1e-4*scale+1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMbps(t *testing.T) {
	// 1MB in 8ms = 1e6*8 bits / 0.008 s = 1e9 bps = 1000 Mbps.
	if got := Mbps(1_000_000, 0.008); !almost(got, 1000, 1e-9) {
		t.Errorf("Mbps = %v", got)
	}
	if Mbps(100, 0) != 0 || Mbps(100, -1) != 0 {
		t.Error("degenerate Mbps not 0")
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2})
	if s.String() == "" {
		t.Error("empty string rendering")
	}
}
