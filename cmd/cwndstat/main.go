// Command cwndstat reproduces the paper's sender-side tracing analysis:
// the cwnd frequency distributions of Figure 2 and the Table I percentages
// (floor/ECE coincidence, timeout probability, FLoss-TO vs LAck-TO split).
//
// Example:
//
//	cwndstat -protocols dctcp,tcp -flows 10,20,40,60 -rounds 200
package main

import (
	"flag"
	"fmt"
	"time"

	dcp "dctcpplus"
	"dctcpplus/internal/cli"
)

var (
	protocols = flag.String("protocols", "dctcp,tcp", "comma-separated protocols")
	flows     = flag.String("flows", "10,20,40,60", "comma-separated concurrent flow counts")
	rounds    = flag.Int("rounds", 100, "rounds per point (paper: 1000)")
	warmup    = flag.Int("warmup", 10, "initial rounds excluded from statistics")
	rtoMin    = flag.Duration("rtomin", 200*time.Millisecond, "minimum (and initial) RTO")
	seed      = flag.Uint64("seed", 1, "experiment seed")
)

// validate is the usage gate (exit 2).
func validate() error {
	return cli.First(cli.ValidateRounds(*rounds, *warmup), cli.ValidateRTOMin(*rtoMin))
}

func main() {
	flag.Parse()
	cli.Usage("cwndstat", validate())
	protoList, err := cli.ParseProtocols(*protocols)
	cli.Usage("cwndstat", err)
	flowCounts, err := cli.ParseFlowCounts(*flows)
	cli.Usage("cwndstat", err)

	type point struct {
		p dcp.Protocol
		n int
		r dcp.IncastResult
	}
	var points []point
	for _, p := range protoList {
		for _, n := range flowCounts {
			o := dcp.DefaultIncastOptions(p, n)
			o.Rounds = *rounds
			o.WarmupRounds = *warmup
			o.RTOMin = dcp.Duration(*rtoMin)
			o.Testbed.Seed = *seed
			o.CollectCwnd = true
			points = append(points, point{p, n, dcp.RunIncast(o)})
		}
	}

	fmt.Println("Figure 2: cwnd frequency distribution (fraction of ACK events per window size)")
	fmt.Printf("%-12s %5s |", "protocol", "N")
	for w := 1; w <= 10; w++ {
		fmt.Printf(" w=%-4d", w)
	}
	fmt.Printf(" %s\n", "w>10")
	for _, pt := range points {
		h := pt.r.CwndHist
		fmt.Printf("%-12s %5d |", pt.p, pt.n)
		var gt float64
		for _, b := range h.Bins() {
			if b > 10 {
				gt += h.Frac(b)
			}
		}
		for w := 1; w <= 10; w++ {
			fmt.Printf(" %5.3f", h.Frac(w))
		}
		fmt.Printf(" %5.3f\n", gt)
	}

	fmt.Println()
	fmt.Println("Table I: floor/ECE coincidence and timeout taxonomy (per flow-round)")
	fmt.Printf("%-12s %5s %14s %10s %10s %10s\n",
		"protocol", "N", "cwndMin&ECE", "timeout", "FLoss-TO", "LAck-TO")
	for _, pt := range points {
		tot := pt.r.FLossTO + pt.r.LAckTO
		fl, la := 0.0, 0.0
		if tot > 0 {
			fl = 100 * float64(pt.r.FLossTO) / float64(tot)
			la = 100 * float64(pt.r.LAckTO) / float64(tot)
		}
		fmt.Printf("%-12s %5d %13.2f%% %9.2f%% %9.2f%% %9.2f%%\n",
			pt.p, pt.n, 100*pt.r.MinCwndECEFrac, 100*pt.r.TimeoutRoundFrac, fl, la)
	}
}
