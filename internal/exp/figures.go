package exp

import (
	"fmt"
	"io"
	"strings"

	"dctcpplus/internal/sim"
	"dctcpplus/internal/telemetry"
)

// This file is the catalogue of the reproduction battery: every figure and
// table of the paper's evaluation, the §V-D parameter ablations and
// compositions, and the resilience table, each a self-describing entry —
// heading, the explicit list of points it runs, and the renderer that prints
// the rows the paper reports. Battery lists them in paper order; cmd/report
// is a loop over that list (or, with -only, over the entries it names), and
// tests pin their shapes.

// Scale applies common run-length settings to every catalogue entry.
// cmd/report defaults to Scale{50, 10, 1}, balancing statistical stability
// against runtime; the paper's own 1000-round scale is Scale{1000, 10, 1}.
type Scale struct {
	Rounds int
	Warmup int
	Seed   uint64

	// Telemetry, when non-nil, is threaded into every run of the figure;
	// each run merges a registry of its own into it, so one registry is
	// safe across RunMany's workers.
	Telemetry *telemetry.Registry
}

// point returns the catalogue's per-point template: the §VI-B defaults for
// (p, n) at the scale's run length, seed and registry.
func (sc Scale) point(p Protocol, n int) IncastOptions {
	o := DefaultIncastOptions(p, n)
	o.Rounds, o.WarmupRounds = sc.Rounds, sc.Warmup
	o.Testbed.Seed = sc.Seed
	o.Telemetry = sc.Telemetry
	return o
}

// Grid lays a protocols x flowCounts grid of points out protocol-major:
// each point is the template with Protocol and Flows filled in. The grid-
// shaped entries are built with it, and a caller that wants an entry over
// its own grid re-grids the same way: f.Points = Grid(f.Points[0],
// protocols, flowCounts).
func Grid(template IncastOptions, protocols []Protocol, flowCounts []int) []IncastOptions {
	pts := make([]IncastOptions, 0, len(protocols)*len(flowCounts))
	for _, p := range protocols {
		for _, n := range flowCounts {
			o := template
			o.Protocol, o.Flows = p, n
			pts = append(pts, o)
		}
	}
	return pts
}

// Heading is what the report prints above an entry's rows.
type Heading struct {
	Title string
	// Expectation is the paper's claim the rows are to be read against.
	Expectation string
}

// Head returns the heading (promoted into every entry type that embeds it).
func (h Heading) Head() Heading { return h }

// Section is one entry of the battery, the surface cmd/report drives.
type Section interface {
	Head() Heading
	// Check turns the conformance oracle on for the entry's points where
	// the entry is one cmd/report -oracle covers: the ablations and the
	// resilience table. The paper's figures never ran under it and still do
	// not: a checked point drains 100ms for the conservation ledger, and
	// although the observers' results are read before the drain, SimTime,
	// the timeout totals and the bottleneck drops are still read after it
	// (ROADMAP 1), so checking could change the figures' numbers. On them
	// Check is a no-op.
	Check()
	Run()
	Render(w io.Writer)
	// Incast returns the entry's incast results, flat and in point order,
	// for the oracle tally; nil for an entry that runs no incast point.
	Incast() []IncastResult
}

// Figure is one incast entry: Points fanned out through RunMany and
// rendered the way the paper reports them. Build one with a constructor
// below; Points is plain data, to be inspected or replaced before Run.
type Figure struct {
	Heading
	// Points lists every run of the entry in row order.
	Points []IncastOptions
	// Results holds one result per point, in the same order, after Run.
	Results []IncastResult

	render func(io.Writer, []IncastResult)
	// checked marks the entries Check applies to.
	checked bool
}

// Run executes every point (in parallel, see Parallelism).
func (f *Figure) Run() { f.Results = RunMany(f.Points) }

// Render writes the figure's rows.
func (f *Figure) Render(w io.Writer) { f.render(w, f.Results) }

// Incast returns Results.
func (f *Figure) Incast() []IncastResult { return f.Results }

// Check implements Section.
func (f *Figure) Check() {
	if !f.checked {
		return
	}
	for i := range f.Points {
		f.Points[i].Oracle = true
	}
}

// Battery returns the whole evaluation in paper order — Figs. 1, 2 + Table
// I, 6-9, 11 + 12, 13, 14, then the §V-D ablations and the fault-resilience
// table — every entry at the given scale.
func Battery(sc Scale) []Section {
	return []Section{
		NewFigure1(sc), NewFigure2Table1(sc), NewFigure6(sc), NewFigure7(sc), NewFigure8(sc),
		NewFigure9(sc), NewFigure11_12(sc), NewFigure13(sc), NewFigure14(sc),
		NewAblations(sc), NewResilience(sc),
	}
}

// NewFigure1 returns the paper's Figure 1: the basic incast goodput
// comparison (DCTCP vs TCP).
func NewFigure1(sc Scale) *Figure {
	return &Figure{
		Heading: Heading{"Figure 1: goodput vs concurrent flows (DCTCP, TCP)",
			"TCP collapses just past 10 flows; DCTCP past ~35"},
		Points: Grid(sc.point(ProtoTCP, 0), []Protocol{ProtoTCP, ProtoDCTCP},
			[]int{1, 5, 10, 20, 30, 40, 60, 80, 100}),
		render: PrintIncastRows,
	}
}

// NewFigure2Table1 returns the paper's Figure 2 / Table I: the
// cwnd-distribution and timeout-taxonomy analysis, every point with cwnd
// probes attached.
func NewFigure2Table1(sc Scale) *Figure {
	tmpl := sc.point(ProtoDCTCP, 0)
	tmpl.CollectCwnd = true
	return &Figure{
		Heading: Heading{"Figure 2 + Table I: cwnd distribution and timeout taxonomy",
			"N>=20: DCTCP mass piles on 1-2 MSS; floor/ECE coincidence common; FLoss dominates deep collapse"},
		Points: Grid(tmpl, []Protocol{ProtoDCTCP, ProtoTCP}, []int{10, 20, 40, 60}),
		render: printCwndRows,
	}
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

// figure7Flows are the flow counts of the headline comparison and its two
// variants.
var figure7Flows = []int{20, 60, 120, 200}

// NewFigure7 returns the paper's Figure 7, the headline comparison.
func NewFigure7(sc Scale) *Figure {
	return &Figure{
		Heading: Heading{"Figure 7: full DCTCP+ vs DCTCP vs TCP",
			"DCTCP+ sustains 600-900 Mbps, 8-17ms FCT beyond 200 flows; DCTCP/TCP sit in RTO collapse"},
		Points: Grid(sc.point(ProtoTCP, 0), []Protocol{ProtoDCTCPPlus, ProtoDCTCP, ProtoTCP}, figure7Flows),
		render: PrintIncastRows,
	}
}

// NewFigure6 returns the partial-implementation ablation of Figure 6.
func NewFigure6(sc Scale) *Figure {
	return &Figure{
		Heading: Heading{"Figure 6: partial (no desync) vs full DCTCP+",
			"partial holds past DCTCP's limit but trails the full mechanism at high N"},
		Points: Grid(sc.point(ProtoTCP, 0), []Protocol{ProtoDCTCPPlusPartial, ProtoDCTCPPlus}, figure7Flows),
		render: PrintIncastRows,
	}
}

// NewFigure8 returns Figure 8: Figure 7's grid with every baseline — each
// protocol that is not a DCTCP+ variant — at RTOmin 10ms.
func NewFigure8(sc Scale) *Figure {
	f := NewFigure7(sc)
	f.Heading = Heading{"Figure 8: DCTCP+ (RTOmin 200ms) vs DCTCP/TCP at RTOmin 10ms",
		"short RTO lifts DCTCP/TCP but DCTCP+ still wins without touching the timer"}
	for i, pt := range f.Points {
		if pt.Protocol != ProtoDCTCPPlus && pt.Protocol != ProtoDCTCPPlusPartial {
			f.Points[i].RTOMin = 10 * sim.Millisecond
		}
	}
	return f
}

// NewFigure9 returns the paper's Figure 9: the bottleneck queue-length CDF
// comparison, every point with the queue sampler attached. Rows are
// N-major — the protocols grouped under each flow count.
func NewFigure9(sc Scale) *Figure {
	tmpl := sc.point(ProtoTCP, 0)
	tmpl.QueueSampleEvery = 100 * sim.Microsecond
	f := &Figure{
		Heading: Heading{"Figure 9: bottleneck queue-length CDF (bytes, 100us samples)",
			"DCTCP+ keeps a shorter, stabler queue; the gap widens with N"},
		render: printQueueCDFRows,
	}
	for _, n := range []int{30, 50, 80} {
		f.Points = append(f.Points, Grid(tmpl, []Protocol{ProtoDCTCPPlus, ProtoDCTCP, ProtoTCP}, []int{n})...)
	}
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

// NewFigure11_12 returns the paper's §VI-C entry: the incast with two
// persistent background flows.
func NewFigure11_12(sc Scale) *Figure {
	tmpl := sc.point(ProtoTCP, 0)
	tmpl.BackgroundFlows = 2
	tmpl.ChunkBytes = 1 << 20
	return &Figure{
		Heading: Heading{"Figures 11 + 12: incast with 2 persistent background flows",
			"DCTCP+ keeps near-no-background goodput and far shorter FCT; long flows share the residue"},
		Points: Grid(tmpl, []Protocol{ProtoDCTCPPlus, ProtoDCTCP, ProtoTCP}, []int{20, 60, 120}),
		render: PrintBackgroundIncastRows,
	}
}

// Figure13 is the production benchmark-traffic experiment.
type Figure13 struct {
	Heading
	Protocols  []Protocol
	Queries    int
	Background int
	RTOMin     sim.Duration
	Seed       uint64

	Results []BenchmarkResult
}

// NewFigure13 returns the paper's §VI-D entry at reduced scale (the paper
// runs 7,000 + 7,000); of the scale only the seed applies.
func NewFigure13(sc Scale) *Figure13 {
	return &Figure13{
		Heading: Heading{"Figure 13: benchmark traffic FCT (queries / background), RTOmin 10ms",
			"DCTCP+ wins mean and especially p99 query FCT; background barely affected"},
		Protocols:  []Protocol{ProtoDCTCPPlus, ProtoDCTCP},
		Queries:    1000,
		Background: 1000,
		RTOMin:     10 * sim.Millisecond,
		Seed:       sc.Seed,
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

// Incast implements Section: the benchmark mix runs no incast point.
func (f *Figure13) Incast() []IncastResult { return nil }

// Check implements Section: RunBenchmark has no oracle attachment.
func (f *Figure13) Check() {}

// NewFigure14 returns the paper's Figure 14: the convergence trace of 50
// DCTCP+ flows at 4MB each. It traces the first 8 rounds of a run, so it
// pins its own length: the scale contributes only seed and registry.
func NewFigure14(sc Scale) *Figure {
	pt := sc.point(ProtoDCTCPPlus, 50)
	pt.BytesPerFlow = 4 << 20
	pt.Rounds, pt.WarmupRounds = 8, 1
	pt.KeepRounds = true
	pt.QueueSampleEvery = 100 * sim.Microsecond
	f := &Figure{
		Heading: Heading{"Figure 14: convergence, 50 DCTCP+ flows x 4MB",
			"buffer overflows during the first rounds, then the regulation converges"},
		Points: []IncastOptions{pt},
	}
	f.render = func(w io.Writer, results []IncastResult) {
		for i, r := range results {
			printConvergence(w, r, f.Points[i].Testbed.Topo.SwitchPort.BufferBytes)
		}
	}
	return f
}

// convergenceBin is the width of one bar of Fig. 14's queue chart.
const convergenceBin = 50 * sim.Millisecond

// printConvergence writes the per-round series, the queue occupancy chart
// (the peak of each 50ms bin, scaled to the switch buffer bufBytes) and the
// convergence verdict.
func printConvergence(w io.Writer, r IncastResult, bufBytes int) {
	for i, p := range r.Series {
		fmt.Fprintf(w, "round %d: fct=%8.1fms goodput=%5.0f Mbps flowTimeouts=%d\n",
			i, p.FCTms, p.GoodputMbps, p.FlowTimeouts)
	}
	binMS := int(convergenceBin / sim.Millisecond)
	fmt.Fprintf(w, "(max occupancy per %dms bin; buffer limit %d bytes)\n", binMS, bufBytes)
	cur, binIdx := 0, 0
	r.Queue.Each(func(at sim.Time, bytes int) {
		for idx := int(sim.Duration(at) / convergenceBin); binIdx < idx; binIdx++ {
			printBin(w, binIdx, binMS, cur, bufBytes)
			cur = 0
		}
		cur = max(cur, bytes)
	})
	printBin(w, binIdx, binMS, cur, bufBytes)
	if c := r.ConvergedAtRound(); c >= 0 {
		fmt.Fprintf(w, "converged at round %d", c)
	} else {
		fmt.Fprint(w, "never converged: flows timed out in the last round")
	}
	fmt.Fprintf(w, "; bottleneck drops %d\n", r.BottleneckDrops)
}

// printBin writes one bin's row, its bar scaled so a full buffer of
// bufBytes spans the width.
func printBin(w io.Writer, idx, binMS, maxBytes, bufBytes int) {
	const width = 60
	bar := min(maxBytes*width/bufBytes, width)
	fmt.Fprintf(w, "t=%5dms %6dB |%s\n", idx*binMS, maxBytes, strings.Repeat("#", bar))
}

// OracleReport folds the conformance outcome of an entry's results: the
// total violation count plus, per violating point, one identifying line and
// its first three violations. (0, nil) means the entry ran clean.
func OracleReport(label string, results []IncastResult) (total int64, lines []string) {
	for i, r := range results {
		if r.OracleTotal == 0 {
			continue
		}
		total += r.OracleTotal
		lines = append(lines, fmt.Sprintf("%s: point %d (%v N=%d): %d oracle violations",
			label, i, r.Protocol, r.Flows, r.OracleTotal))
		for _, v := range r.OracleViolations[:min(3, len(r.OracleViolations))] {
			lines = append(lines, "  "+v.String())
		}
	}
	return total, lines
}
