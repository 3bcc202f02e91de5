// Command queuestat samples the bottleneck switch queue every 100us, as
// the paper does on Switch 1, and reports either the queue-length CDF
// (Figure 9) or the convergence time series of Figure 14 (50 DCTCP+ flows
// at 4MB each: the buffer overflows for the first rounds, then the
// regulation converges).
//
// Examples:
//
//	queuestat -protocols dctcp+,dctcp,tcp -flows 30,50,80   # Fig. 9
//	queuestat -trace                                        # Fig. 14
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	dcp "dctcpplus"
	"dctcpplus/internal/cli"
)

var (
	protocols = flag.String("protocols", "dctcp+,dctcp,tcp", "comma-separated protocols")
	flows     = flag.String("flows", "30,50,80", "comma-separated concurrent flow counts")
	rounds    = flag.Int("rounds", 50, "rounds per point")
	warmup    = flag.Int("warmup", 10, "initial rounds excluded from statistics")
	rtoMin    = flag.Duration("rtomin", 200*time.Millisecond, "minimum (and initial) RTO")
	seed      = flag.Uint64("seed", 1, "experiment seed")
	traceMode = flag.Bool("trace", false, "run the Fig. 14 convergence trace instead of the CDF")
	binMS     = flag.Int("bin", 50, "trace mode: bin width in ms for the printed series")
)

// validate is the usage gate (exit 2) for the mode the flags select; the
// Fig. 14 trace runs at a fixed scale and only needs a bin to print in.
func validate() error {
	if *traceMode {
		if *binMS <= 0 {
			return fmt.Errorf("-bin %d: must be positive", *binMS)
		}
		return nil
	}
	return cli.First(cli.ValidateRounds(*rounds, *warmup), cli.ValidateRTOMin(*rtoMin))
}

func main() {
	flag.Parse()
	cli.Usage("queuestat", validate())
	if *traceMode {
		runTrace(*seed, *binMS)
		return
	}
	protoList, err := cli.ParseProtocols(*protocols)
	cli.Usage("queuestat", err)
	flowCounts, err := cli.ParseFlowCounts(*flows)
	cli.Usage("queuestat", err)

	f := dcp.NewFigure9(dcp.Scale{Rounds: *rounds, Warmup: *warmup, Seed: *seed})
	tmpl := f.Points[0]
	tmpl.RTOMin = dcp.Duration(*rtoMin)
	f.Points = nil
	for _, n := range flowCounts { // N-major, like the figure
		f.Points = append(f.Points, dcp.Grid(tmpl, protoList, []int{n})...)
	}
	f.Run()

	fmt.Println("Figure 9: bottleneck queue-length CDF (bytes; sampled every 100us)")
	f.Render(os.Stdout)
}

// runTrace reproduces Figure 14: N=50 DCTCP+ flows, 4MB each, queue
// occupancy over the first rounds, scaled to the buffer the point's
// testbed gives its switch ports.
func runTrace(seed uint64, binMS int) {
	f := dcp.NewFigure14(dcp.Scale{Seed: seed})
	f.Run()
	r := f.Results[0]
	buf := f.Points[0].Testbed.Topo.SwitchPort.BufferBytes

	fmt.Println("Figure 14: Switch-1 queue occupancy, 50 DCTCP+ flows x 4MB")
	fmt.Printf("(max occupancy per %dms bin; buffer limit %d bytes)\n", binMS, buf)
	bin := dcp.Duration(binMS) * dcp.Millisecond
	cur, binIdx := 0, 0
	for i := 0; i < r.Queue.Len(); i++ {
		at, bytes := r.Queue.Sample(i)
		idx := int(dcp.Duration(at) / bin)
		for idx > binIdx {
			printBin(os.Stdout, binIdx, binMS, cur, buf)
			binIdx++
			cur = 0
		}
		if bytes > cur {
			cur = bytes
		}
	}
	printBin(os.Stdout, binIdx, binMS, cur, buf)
	fmt.Printf("\nbottleneck drops: %d   timeouts: %d\n", r.BottleneckDrops, r.Timeouts)
}

// printBin writes one bin's row, its bar scaled so a full buffer of
// bufBytes spans the width.
func printBin(w io.Writer, idx, binMS, maxBytes, bufBytes int) {
	const width = 60
	bar := maxBytes * width / bufBytes
	if bar > width {
		bar = width
	}
	fmt.Fprintf(w, "t=%5dms %6dB |%s\n", idx*binMS, maxBytes, strings.Repeat("#", bar))
}
