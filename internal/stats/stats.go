// Package stats provides the measurement toolkit for the experiments:
// summary statistics (mean/stddev/percentiles), empirical CDFs, integer
// histograms (cwnd frequency distributions), online accumulators, and
// goodput helpers. Everything operates on plain float64 samples so the
// experiment harness stays decoupled from simulator types.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the descriptive statistics the paper reports for FCT and
// throughput series (Fig. 13 uses mean / 95th / 99th percentiles).
type Summary struct {
	// Count is int64: streaming summaries fold one sample per ACK or
	// round, and a long sweep overflows a 32-bit tally.
	Count int64
	Mean  float64
	Std   float64
	Min   float64
	Max   float64
	P50   float64
	P95   float64
	P99   float64
}

// dropNaN returns a copy of samples with NaN values removed. NaN is not
// orderable — a single one corrupts sort order and every rank-based
// statistic downstream — so the constructors discard them at the boundary,
// guaranteeing NaN-free summaries, quantiles and CDFs.
func dropNaN(samples []float64) []float64 {
	out := make([]float64, 0, len(samples))
	for _, v := range samples {
		if !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}

// Summarize computes a Summary of the samples. An empty input yields the
// zero Summary; NaN samples are discarded.
func Summarize(samples []float64) Summary {
	sorted := dropNaN(samples)
	n := len(sorted)
	if n == 0 {
		return Summary{}
	}
	sort.Float64s(sorted)
	// Welford's algorithm: stable against both catastrophic cancellation
	// and overflow of a naive sum-of-squares.
	var w Welford
	for _, v := range sorted {
		w.Add(v)
	}
	return Summary{
		Count: int64(n),
		Mean:  w.Mean(),
		Std:   w.Std(),
		Min:   sorted[0],
		Max:   sorted[n-1],
		P50:   quantileSorted(sorted, 0.50),
		P95:   quantileSorted(sorted, 0.95),
		P99:   quantileSorted(sorted, 0.99),
	}
}

// String renders the summary compactly for experiment logs.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f p50=%.3f p95=%.3f p99=%.3f min=%.3f max=%.3f",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Min, s.Max)
}

// quantileSorted returns the q-quantile (0..1) of a sorted sample using
// linear interpolation between closest ranks.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Quantile returns the q-quantile of unsorted samples. NaN samples are
// discarded.
func Quantile(samples []float64, q float64) float64 {
	sorted := dropNaN(samples)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// CDF is an empirical cumulative distribution function over a sample set.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from samples (copied and sorted). NaN samples are
// discarded.
func NewCDF(samples []float64) *CDF {
	s := dropNaN(samples)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len returns the sample count.
func (c *CDF) Len() int { return len(c.sorted) }

// Quantile returns the q-quantile (inverse CDF).
func (c *CDF) Quantile(q float64) float64 { return quantileSorted(c.sorted, q) }

// Hist is an integer-bin frequency histogram — used for the paper's cwnd
// size distributions (Fig. 2), where bins are whole MSS counts. Bins in
// [0, denseBins) are counted in an array inside the histogram, so a cwnd
// probe's per-ACK Add is an index and an increment and a histogram
// allocates once; any other bin goes to a map made on first use.
type Hist struct {
	dense  [denseBins]int64
	sparse map[int]int64 // bins outside [0, denseBins)
	total  int64
}

// denseBins bounds the array-counted bins: cwnds of the paper's incasts sit
// within a few tens of MSS.
const denseBins = 64

// NewHist returns an empty histogram.
func NewHist() *Hist { return &Hist{} }

// Add records one observation of bin v.
func (h *Hist) Add(v int) {
	if uint(v) < denseBins {
		h.dense[v]++
	} else {
		if h.sparse == nil {
			h.sparse = make(map[int]int64)
		}
		h.sparse[v]++
	}
	h.total++
}

// Total returns the number of observations.
func (h *Hist) Total() int64 { return h.total }

// Count returns the observations in bin v.
func (h *Hist) Count(v int) int64 {
	if uint(v) < denseBins {
		return h.dense[v]
	}
	return h.sparse[v]
}

// Frac returns the fraction of observations in bin v.
func (h *Hist) Frac(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Count(v)) / float64(h.total)
}

// Bins returns the occupied bins in ascending order.
func (h *Hist) Bins() []int {
	bins := make([]int, 0, len(h.sparse))
	for v, c := range h.dense {
		if c > 0 {
			bins = append(bins, v)
		}
	}
	for v := range h.sparse {
		bins = append(bins, v)
	}
	sort.Ints(bins)
	return bins
}

// Merge folds other into h.
func (h *Hist) Merge(other *Hist) {
	for v, c := range other.dense {
		h.dense[v] += c
	}
	if h.sparse == nil && len(other.sparse) > 0 {
		h.sparse = make(map[int]int64, len(other.sparse))
	}
	for v, c := range other.sparse {
		h.sparse[v] += c
	}
	h.total += other.total
}

// Welford is an online mean/variance accumulator (numerically stable).
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one sample into the accumulator. NaN samples are discarded, the
// same boundary policy as the batch constructors.
func (w *Welford) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the sample count.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (0 with no samples).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the population variance.
func (w *Welford) Var() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std returns the population standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Mbps converts a byte count over a duration in seconds to megabits per
// second — the goodput unit of the paper's figures.
func Mbps(bytes int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(bytes) * 8 / 1e6 / seconds
}
