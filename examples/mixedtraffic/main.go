// Mixedtraffic reproduces the §VI-C scenario as a library user would: an
// incast workload competing with two persistent bulk transfers through the
// same bottleneck port (Fig. 10). It shows the performance-isolation
// property the paper claims: DCTCP+ keeps short-flow FCT low without
// starving the long flows.
package main

import (
	"fmt"

	dcp "dctcpplus"
)

func main() {
	protocols := []dcp.Protocol{dcp.ProtoTCP, dcp.ProtoDCTCP, dcp.ProtoDCTCPPlus}
	const flows = 80

	fmt.Printf("Incast (N=%d, 1MB/round) sharing the bottleneck with 2 persistent flows\n\n", flows)
	fmt.Printf("%-14s %12s %12s %14s %18s %6s\n",
		"protocol", "goodput", "fct.p99", "longflow.mean", "longflow.per-flow", "jain")
	for _, p := range protocols {
		o := dcp.DefaultIncastOptions(p, flows)
		o.Rounds = 30
		o.WarmupRounds = 8
		o.BackgroundFlows = 2
		o.ChunkBytes = 1 << 20
		r := dcp.RunIncast(o)
		fmt.Printf("%-14s %9.0f Mb %10.2fms %11.0f Mb   %-15v %6.2f\n",
			p, r.GoodputMbps.Mean, r.FCTms.P99, r.LongFlowMbps.Mean,
			fmtMbps(r.PerFlowMeanMbps), dcp.JainIndex(r.PerFlowMeanMbps))
	}

	fmt.Println("\nReading the table: the incast rounds should keep millisecond-scale")
	fmt.Println("p99 FCT only under DCTCP+, while the two long flows still share the")
	fmt.Println("leftover capacity (the paper reports ~400 Mbps each).")
}

func fmtMbps(v []float64) string {
	s := "["
	for i, m := range v {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.0f", m)
	}
	return s + "]"
}
