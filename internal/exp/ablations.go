package exp

import (
	"fmt"
	"io"

	"dctcpplus/internal/core"
	"dctcpplus/internal/sim"
)

// The §V-D entries: the paper gives guidance for backoff_time_unit and
// divisor_factor without a figure, and §VII sketches the compositions. The
// four constructors below are the parts of one report section (NewAblations
// carries its heading). These lists are the one place the explored values
// are declared; each must keep core.DefaultConfig's value so the calibrated
// default is always a row.
var (
	backoffUnits = []sim.Duration{100 * sim.Microsecond, 400 * sim.Microsecond,
		800 * sim.Microsecond, 3200 * sim.Microsecond}
	divisors = []float64{1.5, 2, 4, 8}
)

// ablationFlows is the fan-in of the parameter ablations: deep in the
// regime where the enhancement mechanism, not the window, sets the rate.
const ablationFlows = 120

// newParamAblation returns an entry with one DCTCP+ point per value of one
// enhancement parameter, every other parameter at its default. prefix is
// the row label's format, applied to the value.
func newParamAblation[T any](sc Scale, prefix string, vals []T, set func(*core.Config, T)) *Figure {
	f := &Figure{}
	for _, v := range vals {
		cfg := core.DefaultConfig()
		set(&cfg, v)
		pt := sc.point(ProtoDCTCPPlus, ablationFlows)
		pt.Enhancement = &cfg
		f.Points = append(f.Points, pt)
	}
	f.render = func(w io.Writer, results []IncastResult) {
		for i, r := range results {
			fmt.Fprintf(w, prefix+" goodput=%5.0f Mbps fct=%7.2fms timeouts=%d\n",
				vals[i], r.GoodputMbps.Mean, r.FCTms.Mean, r.Timeouts)
		}
	}
	return f
}

// NewBackoffUnitAblation returns the backoff_time_unit sweep (the additive
// slow_time step) at N=120. §V-D: too small cannot relieve severe fan-in
// congestion; too large over-throttles and wastes bandwidth.
func NewBackoffUnitAblation(sc Scale) *Figure {
	return newParamAblation(sc, "unit=%-8v  ", backoffUnits,
		func(c *core.Config, u sim.Duration) { c.BackoffUnit = u })
}

// NewDivisorAblation returns the divisor_factor sweep (the multiplicative
// slow_time decrease) at N=120. §V-D: too big recovers prematurely; too
// conservative retards the rate regulation.
func NewDivisorAblation(sc Scale) *Figure {
	return newParamAblation(sc, "divisor=%-6v", divisors,
		func(c *core.Config, d float64) { c.DivisorFactor = d })
}

// NewCompositionTable returns the nine-row comparison table: desync on/off
// (DCTCP+ vs partial), the footnote-3 min-cwnd control (DCTCP at a 1-MSS
// floor), and the §VII compositions of the mechanism with Reno-ECN and
// D2TCP, each next to its baseline at the N where the baseline collapses.
func NewCompositionTable(sc Scale) *Figure {
	f := &Figure{render: PrintIncastRows}
	for _, row := range []struct {
		p Protocol
		n int
	}{
		{ProtoDCTCPPlus, 160}, {ProtoDCTCPPlusPartial, 160},
		{ProtoDCTCP, 80}, {ProtoDCTCPMin1, 80}, {ProtoDCTCPMin1, 120},
		{ProtoRenoPlus, 80}, {ProtoTCP, 80},
		{ProtoD2TCP, 120}, {ProtoD2TCPPlus, 120},
	} {
		f.Points = append(f.Points, sc.point(row.p, row.n))
	}
	return f
}

// NewHULLComposition returns the HULL-vs-threshold pair: DCTCP at N=40 over
// phantom-queue switches, then over the standard K-threshold ones, both
// with the queue sampler attached.
func NewHULLComposition(sc Scale) *Figure {
	std := sc.point(ProtoDCTCP, 40)
	std.QueueSampleEvery = 100 * sim.Microsecond
	hull := std
	hull.Testbed = HULLTestbed()
	hull.Testbed.Seed = sc.Seed
	return &Figure{
		Points: []IncastOptions{hull, std},
		render: func(w io.Writer, rs []IncastResult) {
			hr, sr := rs[0], rs[1]
			fmt.Fprintf(w, "\nHULL composition at N=%d: goodput=%0.f Mbps (std %0.f), queue p99=%0.f bytes (std %0.f)\n",
				hr.Flows, hr.GoodputMbps.Mean, sr.GoodputMbps.Mean,
				hr.QueueCDF().Quantile(0.99), sr.QueueCDF().Quantile(0.99))
		},
		checked: true,
	}
}

// NewAblations returns the report's ablation section: the four entries
// above under one heading, their points run as one batch and each part
// rendered over its own stretch of the results. Its Points keep the parts'
// layout; re-grid a part, not the section.
func NewAblations(sc Scale) *Figure {
	parts := []*Figure{NewBackoffUnitAblation(sc), NewDivisorAblation(sc),
		NewCompositionTable(sc), NewHULLComposition(sc)}
	f := &Figure{
		Heading: Heading{"Ablations (DESIGN.md): backoff unit / divisor / desync / min-cwnd / compositions",
			"unit ~ effective RTT is the sweet spot; divisor 2; min-cwnd alone does not rescue DCTCP; the mechanism composes with reno/d2tcp/HULL"},
		checked: true,
	}
	for _, p := range parts {
		f.Points = append(f.Points, p.Points...)
	}
	f.render = func(w io.Writer, rs []IncastResult) {
		for _, p := range parts {
			n := len(p.Points)
			p.render(w, rs[:n])
			rs = rs[n:]
		}
	}
	return f
}
