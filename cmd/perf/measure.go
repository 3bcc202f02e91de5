package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Everything in this file measures the host, never the simulation: wall
// clock, process memory, allocator counters, and the span recorder.

func now() time.Time { return time.Now() }

// since returns host seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// median returns the middle value (mean of the middle two for even n).
// An empty input yields NaN so a missing measurement cannot pass as 0.
func median(vs []float64) float64 { return percentile(vs, 50) }

// percentile returns the p-th percentile (0–100) by linear interpolation
// between closest ranks. It is the rule stats.Quantile uses, kept separate
// on purpose: internal/stats is one of the layers being measured, and the
// benchmark's own arithmetic must not move when that layer changes.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so a spread
// computed here matches the one the benchmark's acceptance rule uses.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 { // quartile i of 4
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j)*4
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure a bound is judged against.
func spread(vs []float64) float64 {
	m := median(vs)
	if len(vs) < 2 || m <= 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / m
}

// memCounters is the allocator state a timed region is bracketed with.
type memCounters struct{ totalAlloc, mallocs uint64 }

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{m.TotalAlloc, m.Mallocs}
}

// peakRSSMB returns the process's resident-set high-water mark in MB from
// /proc/self/status (VmHWM). Where procfs is absent it falls back to the
// Go runtime's view of memory obtained from the OS.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// span is one timed interval at a layer boundary. Start and End are host
// seconds since the recorder's epoch; Parent is the enclosing span's ID (0
// for a root); Workload is the identifier every span of one run shares.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Start    float64 `json:"start_s"`
	End      float64 `json:"end_s"`
}

// recorder keeps spans in memory; they are written out once, at exit. The
// zero recorder is usable and stamps times relative to its first span.
type recorder struct {
	epoch    time.Time
	workload string
	spans    []span
	open     []int // indices into spans of the currently open spans
}

// begin opens a span as a child of the innermost open one and returns its
// handle for end.
func (r *recorder) begin(name string) int {
	if r.epoch.IsZero() {
		r.epoch = now()
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name, Workload: r.workload,
		Start: since(r.epoch),
	})
	r.open = append(r.open, len(r.spans)-1)
	return len(r.spans) - 1
}

// end closes the span begin returned and reports its duration in seconds.
// Spans close innermost-first.
func (r *recorder) end(h int) float64 {
	if n := len(r.open); n == 0 || r.open[n-1] != h {
		panic("perf: spans must close innermost-first")
	}
	r.open = r.open[:len(r.open)-1]
	s := &r.spans[h]
	s.End = since(r.epoch)
	return s.End - s.Start
}

// add records an already-measured interval as a child of the innermost open
// span, for work whose duration is reported to the benchmark rather than
// timed by it.
func (r *recorder) add(name string, start, end float64) {
	parent := r.spans[r.open[len(r.open)-1]].ID
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name, Workload: r.workload, Start: start, End: end,
	})
}

// writeSpans writes spans as JSON lines.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return bw.Flush()
}
