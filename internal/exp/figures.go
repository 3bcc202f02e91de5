package exp

import (
	"fmt"
	"io"

	"dctcpplus/internal/sim"
	"dctcpplus/internal/telemetry"
)

// This file packages the paper's evaluation artifacts as self-describing
// experiments: construct the default spec (NewFigureN), adjust its fields,
// Run it, and Render the same rows/series the paper reports. cmd/report
// chains them, the figure binaries under cmd/ are shells over them, and
// tests pin their shapes.

// Scale applies common run-length settings to every figure spec.
type Scale struct {
	Rounds int
	Warmup int
	Seed   uint64

	// Telemetry, when non-nil, is threaded into every run of the figure;
	// atomic instruments make one registry safe across RunMany's workers.
	Telemetry *telemetry.Registry
}

// DefaultScale balances statistical stability against runtime; the paper's
// own 1000-round scale is Scale{1000, 10, 1}.
func DefaultScale() Scale { return Scale{Rounds: 50, Warmup: 10, Seed: 1} }

// Figure is one incast artifact of the paper: the Protocols x FlowCounts
// grid of RunIncast points, fanned out through RunMany and rendered the way
// the paper reports it. Build one with a NewFigureN constructor.
type Figure struct {
	// Options is the per-point template. Run copies it for every
	// (protocol, N), fills in Protocol and Flows and overlays Scale.
	Options    IncastOptions
	Scale      Scale
	Protocols  []Protocol
	FlowCounts []int
	// BaselineRTOMin, when nonzero, applies to every protocol except
	// DCTCP+ variants — the Figure 8 configuration.
	BaselineRTOMin sim.Duration

	// Results holds one point per (protocol, N) in row order after Run.
	Results []IncastResult

	// flowsMajor orders rows N-major (Fig. 9 groups the protocols under
	// each flow count); every other figure is protocol-major.
	flowsMajor bool
	// fixedLength keeps the template's Rounds/WarmupRounds: Fig. 14 traces
	// the first rounds of a run, so Scale contributes only seed and registry.
	fixedLength bool
	render      func(io.Writer, []IncastResult)
}

func newFigure(protocols []Protocol, flowCounts []int, render func(io.Writer, []IncastResult)) *Figure {
	return &Figure{
		Options:    DefaultIncastOptions(ProtoTCP, 0),
		Scale:      DefaultScale(),
		Protocols:  protocols,
		FlowCounts: flowCounts,
		render:     render,
	}
}

// Run executes every point of the grid (in parallel, see Parallelism).
func (f *Figure) Run() {
	optList := make([]IncastOptions, 0, len(f.Protocols)*len(f.FlowCounts))
	point := func(p Protocol, n int) {
		o := f.Options
		o.Protocol, o.Flows = p, n
		if !f.fixedLength {
			o.Rounds, o.WarmupRounds = f.Scale.Rounds, f.Scale.Warmup
		}
		o.Testbed.Seed = f.Scale.Seed
		o.Telemetry = f.Scale.Telemetry
		if f.BaselineRTOMin > 0 && p != ProtoDCTCPPlus && p != ProtoDCTCPPlusPartial {
			o.RTOMin = f.BaselineRTOMin
		}
		optList = append(optList, o)
	}
	if f.flowsMajor {
		for _, n := range f.FlowCounts {
			for _, p := range f.Protocols {
				point(p, n)
			}
		}
	} else {
		for _, p := range f.Protocols {
			for _, n := range f.FlowCounts {
				point(p, n)
			}
		}
	}
	f.Results = RunMany(optList)
}

// Render writes the figure's rows.
func (f *Figure) Render(w io.Writer) { f.render(w, f.Results) }

// NewFigure1 returns the paper's Figure 1 specification: the basic incast
// goodput comparison (DCTCP vs TCP).
func NewFigure1() *Figure {
	return newFigure([]Protocol{ProtoTCP, ProtoDCTCP},
		[]int{1, 5, 10, 20, 30, 40, 60, 80, 100}, PrintIncastRows)
}

// NewFigure2Table1 returns the paper's Figure 2 / Table I specification:
// the cwnd-distribution and timeout-taxonomy analysis, every point with
// cwnd probes attached.
func NewFigure2Table1() *Figure {
	f := newFigure([]Protocol{ProtoDCTCP, ProtoTCP}, []int{10, 20, 40, 60}, printCwndRows)
	f.Options.CollectCwnd = true
	return f
}

// printCwndRows writes both the Figure 2 histogram rows and the Table I
// percentages.
func printCwndRows(w io.Writer, results []IncastResult) {
	fmt.Fprintf(w, "%-12s %4s |", "protocol", "N")
	for i := 1; i <= 8; i++ {
		fmt.Fprintf(w, " w=%-4d", i)
	}
	fmt.Fprintf(w, " %s\n", "w>8")
	for _, r := range results {
		h := r.CwndHist
		var gt float64
		for _, b := range h.Bins() {
			if b > 8 {
				gt += h.Frac(b)
			}
		}
		fmt.Fprintf(w, "%-12s %4d |", r.Protocol, r.Flows)
		for i := 1; i <= 8; i++ {
			fmt.Fprintf(w, " %5.3f", h.Frac(i))
		}
		fmt.Fprintf(w, " %5.3f\n", gt)
	}
	fmt.Fprintf(w, "\n%-12s %4s %14s %10s %10s %10s\n",
		"protocol", "N", "cwndMin&ECE", "timeout", "FLoss-TO", "LAck-TO")
	for _, r := range results {
		tot := r.FLossTO + r.LAckTO
		fl, la := 0.0, 0.0
		if tot > 0 {
			fl = 100 * float64(r.FLossTO) / float64(tot)
			la = 100 * float64(r.LAckTO) / float64(tot)
		}
		fmt.Fprintf(w, "%-12s %4d %13.2f%% %9.2f%% %9.2f%% %9.2f%%\n",
			r.Protocol, r.Flows, 100*r.MinCwndECEFrac, 100*r.TimeoutRoundFrac, fl, la)
	}
}

// NewFigure7 returns the paper's Figure 7 specification, the headline
// comparison (Figure 6 is its partial-protocol variant, Figure 8 its
// BaselineRTOMin variant).
func NewFigure7() *Figure {
	return newFigure([]Protocol{ProtoDCTCPPlus, ProtoDCTCP, ProtoTCP},
		[]int{20, 60, 120, 200}, PrintIncastRows)
}

// NewFigure6 returns the partial-implementation ablation of Figure 6.
func NewFigure6() *Figure {
	f := NewFigure7()
	f.Protocols = []Protocol{ProtoDCTCPPlusPartial, ProtoDCTCPPlus}
	return f
}

// NewFigure8 returns Figure 8: baselines at RTOmin = 10ms.
func NewFigure8() *Figure {
	f := NewFigure7()
	f.BaselineRTOMin = 10 * sim.Millisecond
	return f
}

// NewFigure9 returns the paper's Figure 9 specification: the bottleneck
// queue-length CDF comparison, every point with the queue sampler attached.
func NewFigure9() *Figure {
	f := newFigure([]Protocol{ProtoDCTCPPlus, ProtoDCTCP, ProtoTCP}, []int{30, 50, 80}, printQueueCDFRows)
	f.Options.QueueSampleEvery = 100 * sim.Microsecond
	f.flowsMajor = true
	return f
}

// printQueueCDFRows writes queue-CDF quantile rows.
func printQueueCDFRows(w io.Writer, results []IncastResult) {
	fmt.Fprintf(w, "%-14s %4s | %9s %9s %9s %9s %9s\n",
		"protocol", "N", "p25", "p50", "p90", "p99", "max")
	for _, r := range results {
		cdf := r.QueueCDF()
		fmt.Fprintf(w, "%-14s %4d | %9.0f %9.0f %9.0f %9.0f %9.0f\n",
			r.Protocol, r.Flows, cdf.Quantile(0.25), cdf.Quantile(0.5),
			cdf.Quantile(0.9), cdf.Quantile(0.99), cdf.Quantile(1))
	}
}

// NewFigure11_12 returns the paper's §VI-C specification: the incast with
// two persistent background flows.
func NewFigure11_12() *Figure {
	f := newFigure([]Protocol{ProtoDCTCPPlus, ProtoDCTCP, ProtoTCP}, []int{20, 60, 120}, PrintBackgroundIncastRows)
	f.Options.BackgroundFlows = 2
	f.Options.ChunkBytes = 1 << 20
	return f
}

// Figure13 is the production benchmark-traffic experiment.
type Figure13 struct {
	Protocols  []Protocol
	Queries    int
	Background int
	RTOMin     sim.Duration
	Seed       uint64

	Results []BenchmarkResult
}

// NewFigure13 returns the paper's §VI-D specification at reduced scale
// (the paper runs 7,000 + 7,000).
func NewFigure13() *Figure13 {
	return &Figure13{
		Protocols:  []Protocol{ProtoDCTCPPlus, ProtoDCTCP},
		Queries:    1000,
		Background: 1000,
		RTOMin:     10 * sim.Millisecond,
		Seed:       1,
	}
}

// Run executes the benchmark for each protocol. Short messages scale with
// the query count so every class spans comparable virtual time.
func (f *Figure13) Run() {
	f.Results = f.Results[:0]
	for _, p := range f.Protocols {
		o := DefaultBenchmarkOptions(p)
		o.RTOMin = f.RTOMin
		o.Testbed.Seed = f.Seed
		o.Traffic.Queries = f.Queries
		o.Traffic.ShortFlows = f.Queries / 4
		o.Traffic.BackgroundFlows = f.Background
		f.Results = append(f.Results, RunBenchmark(o))
	}
}

// Render writes the figure's rows.
func (f *Figure13) Render(w io.Writer) { PrintBenchmarkRows(w, f.Results) }

// NewFigure14 returns the paper's Figure 14 specification: the convergence
// trace of 50 DCTCP+ flows at 4MB each over the run's first 8 rounds.
func NewFigure14() *Figure {
	f := newFigure([]Protocol{ProtoDCTCPPlus}, []int{50}, printConvergence)
	f.Options.BytesPerFlow = 4 << 20
	f.Options.Rounds = 8
	f.Options.WarmupRounds = 1
	f.Options.KeepRounds = true
	f.Options.QueueSampleEvery = 100 * sim.Microsecond
	f.fixedLength = true
	return f
}

// printConvergence writes the per-round series and the convergence verdict.
func printConvergence(w io.Writer, results []IncastResult) {
	for _, r := range results {
		for i, p := range r.Series {
			fmt.Fprintf(w, "round %d: fct=%8.1fms goodput=%5.0f Mbps flowTimeouts=%d\n",
				i, p.FCTms, p.GoodputMbps, p.FlowTimeouts)
		}
		fmt.Fprintf(w, "converged at round %d; bottleneck drops %d\n",
			r.ConvergedAtRound(), r.BottleneckDrops)
	}
}
