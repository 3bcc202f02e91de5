// Command report runs the complete reproduction battery — dcp.Battery:
// every figure and table of the paper's evaluation, the ablations and, with
// -faults, the resilience table — and prints a single consolidated report
// with the paper's expectation next to each measured result. EXPERIMENTS.md
// is generated from this tool's output.
//
//	report              # default scale (~minutes)
//	report -rounds 200  # closer to paper statistics (slower)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
	"unicode/utf8"

	dcp "dctcpplus"
	"dctcpplus/internal/cli"
)

var (
	rounds = flag.Int("rounds", 50, "incast rounds per experiment point")
	warmup = flag.Int("warmup", 10, "initial rounds excluded from statistics")
	seed   = flag.Uint64("seed", 1, "experiment seed")
	telOut = flag.String("telemetry", "",
		"write the battery's instrument dump to this file as JSON lines, plus a Prometheus text-format sibling (<path>.prom)")
	baseline = flag.String("baseline", "",
		"write the run manifest (config, seed, code version, instrument dump) to this JSON file; diffable against another run's manifest")
	faults = flag.Bool("faults", false,
		"append the fault-injection resilience table (DCTCP vs DCTCP+ clean and under each fault class)")
	jobs   = flag.Int("jobs", dcp.DefaultSweepWorkers(), "concurrent experiment points (workers)")
	oracle = flag.Bool("oracle", false,
		"run the ablation and resilience sections under the trace-conformance oracle; violations fail the report")
)

// validate is the usage gate (exit 2): every entry needs a measured round
// after warmup and a runnable worker pool.
func validate() error {
	return cli.First(
		cli.ValidateRounds(*rounds, *warmup),
		cli.ValidateSweep(*jobs, "", false),
	)
}

func main() {
	flag.Parse()
	cli.Usage("report", validate())
	dcp.SetParallelism(*jobs)
	start := time.Now()
	scale := dcp.Scale{Rounds: *rounds, Warmup: *warmup, Seed: *seed}
	if *telOut != "" || *baseline != "" {
		scale.Telemetry = dcp.NewRegistry()
	}
	fmt.Println("DCTCP+ reproduction report")
	fmt.Printf("rounds=%d warmup=%d seed=%d\n", *rounds, *warmup, *seed)

	// The battery is the catalogue, in paper order. Oracle violations are
	// reported as they are found and fail the report at the end, so the
	// rest of its output is not lost.
	var violations int64
	for _, s := range dcp.Battery(scale) {
		if _, ok := s.(*dcp.Resilience); ok && !*faults {
			continue
		}
		if *oracle {
			s.Check()
		}
		s.Run()
		h := s.Head()
		fmt.Printf("\n%s\n%s\npaper: %s\n\n", h.Title, strings.Repeat("-", utf8.RuneCountInString(h.Title)), h.Expectation)
		s.Render(os.Stdout)
		total, lines := dcp.OracleReport("report: "+h.Title, s.Incast())
		for _, ln := range lines {
			fmt.Fprintln(os.Stderr, ln)
		}
		violations += total
	}
	cli.Fatal("report", writeTelemetry(scale, time.Since(start)))
	fmt.Printf("\nreport completed in %v\n", time.Since(start).Round(time.Second))
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "report: %d oracle violations\n", violations)
		os.Exit(1)
	}
	if *oracle {
		fmt.Println("oracle: clean")
	}
}

// writeTelemetry dumps the shared registry to the -telemetry and -baseline
// outputs.
func writeTelemetry(scale dcp.Scale, wall time.Duration) error {
	if scale.Telemetry == nil {
		return nil
	}
	snap := scale.Telemetry.Snapshot()
	if *telOut != "" {
		if err := cli.WriteFile(*telOut, snap.WriteJSONLines); err != nil {
			return err
		}
		if err := cli.WriteFile(*telOut+".prom", snap.WritePrometheus); err != nil {
			return err
		}
		fmt.Printf("\ntelemetry: %d instruments -> %s (and %s.prom)\n",
			len(snap.Instruments), *telOut, *telOut)
	}
	if *baseline != "" {
		m := dcp.NewManifest("report", *seed)
		m.SetConfig("rounds", *rounds)
		m.SetConfig("warmup", *warmup)
		m.Finish(scale.Telemetry, wall)
		if err := dcp.WriteManifestFile(*baseline, m); err != nil {
			return err
		}
		fmt.Printf("baseline manifest -> %s\n", *baseline)
	}
	return nil
}
