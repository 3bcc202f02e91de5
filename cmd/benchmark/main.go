// Command benchmark runs the paper's §VI-C and §VI-D experiments:
//
//   - The default mode reproduces Figure 13: query traffic (2KB fan-in
//     responses from every worker) mixed with heavy-tailed background
//     flows, comparing protocols at RTOmin = 10ms. The paper generates
//     7,000 queries and 7,000 background flows; -queries/-background set
//     the scale.
//
//   - With -incast N, it instead reproduces Figures 11 and 12: the basic
//     incast with two persistent background flows sharing the bottleneck.
//
// Examples:
//
//	benchmark -queries 1000 -background 1000
//	benchmark -queries 7000 -background 7000        # paper scale
//	benchmark -incast 20,60,120,200                 # Figs. 11/12
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
	protocols  = flag.String("protocols", "dctcp+,dctcp", "comma-separated protocols")
	queries    = flag.Int("queries", 1000, "number of query transactions (paper: 7000)")
	background = flag.Int("background", 1000, "number of background flows (paper: 7000)")
	short      = flag.Int("short", 0, "number of short-message flows (50KB-1MB)")
	rtoMin     = flag.Duration("rtomin", 10*time.Millisecond, "minimum (and initial) RTO")
	maxBg      = flag.Int64("maxbg", 10<<20, "largest background flow in bytes")
	seed       = flag.Uint64("seed", 1, "experiment seed")
	incast     = flag.String("incast", "", "run Figs. 11/12 instead: comma-separated incast flow counts")
	rounds     = flag.Int("rounds", 50, "incast mode: rounds per point")
	warmup     = flag.Int("warmup", 10, "incast mode: warmup rounds excluded")
)

// validate is the usage gate (exit 2) for the mode the flags select: the
// incast mode needs a measured round, the traffic mode a non-empty mix
// whose background sizes fit under -maxbg.
func validate() error {
	if *incast != "" {
		return cli.ValidateRounds(*rounds, *warmup)
	}
	minBg := dcp.DefaultBenchmarkOptions(dcp.ProtoDCTCP).Traffic.BackgroundMinBytes
	switch {
	case *queries < 0:
		return fmt.Errorf("-queries %d: cannot be negative", *queries)
	case *background < 0:
		return fmt.Errorf("-background %d: cannot be negative", *background)
	case *short < 0:
		return fmt.Errorf("-short %d: cannot be negative", *short)
	case *queries == 0 && *background == 0 && *short == 0:
		return fmt.Errorf("-queries, -background and -short are all 0: nothing to run")
	case *background > 0 && *maxBg < minBg:
		return fmt.Errorf("-maxbg %d: below the smallest background flow (%d bytes)", *maxBg, minBg)
	}
	return cli.ValidateRTOMin(*rtoMin)
}

func main() {
	flag.Parse()
	cli.Usage("benchmark", validate())
	protoList, err := cli.ParseProtocols(*protocols)
	cli.Usage("benchmark", err)

	if *incast != "" {
		runBackgroundIncast(protoList)
		return
	}

	var all []dcp.BenchmarkResult
	for _, p := range protoList {
		o := dcp.DefaultBenchmarkOptions(p)
		o.RTOMin = dcp.Duration(*rtoMin)
		o.Testbed.Seed = *seed
		o.Traffic.Queries = *queries
		o.Traffic.ShortFlows = *short
		o.Traffic.BackgroundFlows = *background
		o.Traffic.BackgroundMaxBytes = *maxBg
		all = append(all, dcp.RunBenchmark(o))
	}
	fmt.Println("Figure 13: benchmark traffic FCT (ms) — queries and background flows")
	dcp.PrintBenchmarkRows(os.Stdout, all)
}

func runBackgroundIncast(protoList []dcp.Protocol) {
	flowCounts, err := cli.ParseFlowCounts(*incast)
	cli.Usage("benchmark", err)
	f := dcp.NewFigure11_12(dcp.Scale{Rounds: *rounds, Warmup: *warmup, Seed: *seed})
	f.Points = dcp.Grid(f.Points[0], protoList, flowCounts)
	f.Run()
	fmt.Println("Figures 11+12: incast with two persistent background flows")
	f.Render(os.Stdout)
}
