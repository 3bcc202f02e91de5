package exp

import (
	"fmt"
	"io"

	"dctcpplus/internal/fault"
	"dctcpplus/internal/sim"
)

// Resilience is the fault-resilience table behind EXPERIMENTS.md: the same
// incast points run clean and then under each fault class in isolation. It
// is a Figure whose Run has a second phase — Points is the clean row (one
// point per protocol column), every faulted row repeats it with one fault
// family injected — so Results is flat and row-major: (1 + len(Classes))
// rows of len(Points) results.
type Resilience struct {
	Figure

	// Classes are the table rows after the clean baseline.
	Classes []fault.Class

	// Gen is the plan-distribution template. Its Classes field is
	// overridden per row so each row isolates one fault family; everything
	// else (seed, episode count, severities) is shared, so rows differ
	// only in the pathology injected.
	//
	// Timing is auto-calibrated when Gen.Window is zero: protocols under
	// massive incast differ in run length by an order of magnitude (a
	// collapsed DCTCP run crawls through RTO after RTO), so a fixed fault
	// window would perturb one protocol's whole run and miss another's
	// entirely. Instead each cell's episodes are spread over the middle
	// 80% of that protocol's clean run, with episode length scaled to 10%
	// of it — every protocol loses the same fraction of its run to the
	// pathology, making the degradation ratios comparable.
	Gen fault.GenConfig
}

// NewResilience returns the report's table: DCTCP vs DCTCP+ at the
// massive-flow operating point (N=150, RTOmin 10ms), clean and under every
// fault class. It pins its own run length — long enough past warmup that
// the calibrated fault windows land in measured rounds — and skips the
// scale's registry: the same {proto, flows} label set across rows would
// merge instruments from different fault classes into one indistinguishable
// pile. Of the scale only the seed applies.
func NewResilience(sc Scale) *Resilience {
	base := DefaultIncastOptions(ProtoDCTCP, 0)
	base.Rounds, base.WarmupRounds = 10, 2
	base.RTOMin = 10 * sim.Millisecond
	base.Testbed.Seed = sc.Seed
	return &Resilience{
		Figure: Figure{
			Heading: Heading{"Resilience: DCTCP vs DCTCP+ under injected faults (N=150, RTOmin 10ms)",
				"DCTCP+ keeps its advantage outright and degrades no worse than DCTCP under every fault class"},
			Points:  Grid(base, []Protocol{ProtoDCTCP, ProtoDCTCPPlus}, []int{150}),
			checked: true,
		},
		Classes: fault.AllClasses(),
		Gen:     fault.GenConfig{Seed: sc.Seed},
	}
}

// Run executes the clean row, then every faulted cell as one batch.
func (r *Resilience) Run() {
	// Clean baselines first: they anchor the table and, when Gen.Window
	// is unset, calibrate each protocol's fault window to its actual run
	// span (see Resilience.Gen).
	clean := RunMany(r.Points)
	faulted := make([]IncastOptions, 0, len(r.Classes)*len(r.Points))
	for _, class := range r.Classes {
		for c, pt := range r.Points {
			gen := r.Gen
			gen.Classes = []fault.Class{class}
			if gen.Window <= 0 {
				span := clean[c].SimTime
				gen.Start = sim.Time(span / 10)
				gen.Window = span * 8 / 10
				gen.Dur = span / 10
			}
			pt.Faults = &gen
			faulted = append(faulted, pt)
		}
	}
	r.Results = append(clean, RunMany(faulted)...)
}

// RowLabel names row i of the table: "none" for the clean baseline, then
// each fault class.
func (r *Resilience) RowLabel(i int) string {
	if i == 0 {
		return "none"
	}
	return r.Classes[i-1].String()
}

// Render writes the table: one row per fault class, one
// goodput/FCT/timeouts column group per point of the clean row.
func (r *Resilience) Render(w io.Writer) {
	fmt.Fprintf(w, "%-10s", "fault")
	for _, pt := range r.Points {
		name := pt.Protocol.String()
		fmt.Fprintf(w, "  %16s %12s %12s", name+".goodput", name+".fct", name+".timeouts")
	}
	for i, res := range r.Results {
		if i%len(r.Points) == 0 {
			fmt.Fprintf(w, "\n%-10s", r.RowLabel(i/len(r.Points)))
		}
		fmt.Fprintf(w, "  %13.0f Mb %10.2fms %12d",
			res.GoodputMbps.Mean, res.FCTms.Mean, res.Timeouts)
	}
	fmt.Fprintln(w)
}
