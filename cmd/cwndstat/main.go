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
	"os"
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

	f := dcp.NewFigure2Table1(dcp.Scale{Rounds: *rounds, Warmup: *warmup, Seed: *seed})
	f.Points[0].RTOMin = dcp.Duration(*rtoMin)
	f.Points = dcp.Grid(f.Points[0], protoList, flowCounts)
	f.Run()

	fmt.Println("Figure 2: cwnd frequency distribution (fraction of ACK events per window size)")
	fmt.Println("Table I: floor/ECE coincidence and timeout taxonomy (per flow-round)")
	f.Render(os.Stdout)
}
