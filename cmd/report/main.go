// Command report runs the complete reproduction battery — every figure and
// table of the paper's evaluation plus the ablations — and prints a single
// consolidated report with the paper's expectation next to each measured
// result. EXPERIMENTS.md is generated from this tool's output.
//
//	report              # default scale (~minutes)
//	report -rounds 200  # closer to paper statistics (slower)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

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
		"append the fault-injection resilience sweep (DCTCP vs DCTCP+ clean and under each fault class)")
	jobs     = flag.Int("jobs", dcp.DefaultSweepWorkers(), "concurrent experiment points (workers)")
	cacheDir = flag.String("cache-dir", "",
		"content-addressed result cache for the sweep-backed sections (empty disables caching)")
	resume = flag.Bool("resume", false, "continue a battery whose manifest already exists in -cache-dir")
	oracle = flag.Bool("oracle", false,
		"run the ablation and resilience sections under the trace-conformance oracle; violations fail the report")
)

// figure is the common surface of dcp.Figure and dcp.Figure13.
type figure interface {
	Run()
	Render(w io.Writer)
}

func section(title, expectation string) {
	fmt.Printf("\n%s\n", title)
	for range title {
		fmt.Print("-")
	}
	fmt.Printf("\npaper: %s\n\n", expectation)
}

// validate is the usage gate (exit 2): every figure needs a measured
// round after warmup, and the sweep-backed sections a runnable worker
// pool and cache.
func validate() error {
	return cli.First(
		cli.ValidateRounds(*rounds, *warmup),
		cli.ValidateSweep(*jobs, *cacheDir, *resume),
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

	scaled := func(f *dcp.Figure) *dcp.Figure {
		f.Scale = scale
		return f
	}
	fig13 := dcp.NewFigure13()
	fig13.Seed = scale.Seed
	steps := []struct {
		title, expectation string
		fig                figure
	}{
		{
			"Figure 1: goodput vs concurrent flows (DCTCP, TCP)",
			"TCP collapses just past 10 flows; DCTCP past ~35",
			scaled(dcp.NewFigure1()),
		},
		{
			"Figure 2 + Table I: cwnd distribution and timeout taxonomy",
			"N>=20: DCTCP mass piles on 1-2 MSS; floor/ECE coincidence common; FLoss dominates deep collapse",
			scaled(dcp.NewFigure2Table1()),
		},
		{
			"Figure 6: partial (no desync) vs full DCTCP+",
			"partial holds past DCTCP's limit but trails the full mechanism at high N",
			scaled(dcp.NewFigure6()),
		},
		{
			"Figure 7: full DCTCP+ vs DCTCP vs TCP",
			"DCTCP+ sustains 600-900 Mbps, 8-17ms FCT beyond 200 flows; DCTCP/TCP sit in RTO collapse",
			scaled(dcp.NewFigure7()),
		},
		{
			"Figure 8: DCTCP+ (RTOmin 200ms) vs DCTCP/TCP at RTOmin 10ms",
			"short RTO lifts DCTCP/TCP but DCTCP+ still wins without touching the timer",
			scaled(dcp.NewFigure8()),
		},
		{
			"Figure 9: bottleneck queue-length CDF (bytes, 100us samples)",
			"DCTCP+ keeps a shorter, stabler queue; the gap widens with N",
			scaled(dcp.NewFigure9()),
		},
		{
			"Figures 11 + 12: incast with 2 persistent background flows",
			"DCTCP+ keeps near-no-background goodput and far shorter FCT; long flows share the residue",
			scaled(dcp.NewFigure11_12()),
		},
		{
			"Figure 13: benchmark traffic FCT (queries / background), RTOmin 10ms",
			"DCTCP+ wins mean and especially p99 query FCT; background barely affected",
			fig13,
		},
		{
			"Figure 14: convergence, 50 DCTCP+ flows x 4MB",
			"buffer overflows during the first rounds, then the regulation converges",
			scaled(dcp.NewFigure14()),
		},
	}
	for _, st := range steps {
		st.fig.Run()
		section(st.title, st.expectation)
		st.fig.Render(os.Stdout)
	}

	violations := ablations(scale, *oracle)
	if *faults {
		violations += resilience(scale, *oracle)
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

// oracleCount reports a direct run's conformance violations to stderr and
// returns the count, so the battery can fail at the end without losing the
// rest of its output.
func oracleCount(label string, r dcp.IncastResult) int64 {
	if r.OracleTotal == 0 {
		return 0
	}
	fmt.Fprintf(os.Stderr, "report: %s: %d oracle violations\n", label, r.OracleTotal)
	for i, v := range r.OracleViolations {
		if i >= 3 {
			fmt.Fprintf(os.Stderr, "  ... (%d more)\n", len(r.OracleViolations)-i)
			break
		}
		fmt.Fprintln(os.Stderr, " ", v)
	}
	return r.OracleTotal
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

// resilience runs the fault-injection sweep behind the EXPERIMENTS.md
// resilience table: DCTCP vs DCTCP+ at the massive-flow operating point
// (N=150, RTOmin 10ms), clean and under each fault class in isolation,
// with fault windows auto-calibrated to each protocol's run span. Cells
// deliberately skip the shared registry: the same {proto, flows} label set
// across rows would merge instruments from different fault classes into
// one indistinguishable pile.
func resilience(sc dcp.Scale, oracleOn bool) int64 {
	section("Resilience: DCTCP vs DCTCP+ under injected faults (N=150, RTOmin 10ms)",
		"DCTCP+ keeps its advantage outright and degrades no worse than DCTCP under every fault class")
	base := dcp.DefaultIncastOptions(dcp.ProtoDCTCP, 150)
	base.Rounds, base.WarmupRounds = 10, 2
	base.RTOMin = 10 * dcp.Millisecond
	base.Testbed.Seed = sc.Seed
	base.Oracle = oracleOn
	protos := []dcp.Protocol{dcp.ProtoDCTCP, dcp.ProtoDCTCPPlus}
	rows := dcp.RunResilience(dcp.ResilienceOptions{
		Base:      base,
		Protocols: protos,
		Gen:       dcp.FaultGenConfig{Seed: sc.Seed},
	})
	dcp.PrintResilienceRows(os.Stdout, protos, rows)
	var bad int64
	for _, row := range rows {
		for c, res := range row.Results {
			bad += oracleCount("resilience "+row.Label+"/"+protos[c].String(), res)
		}
	}
	return bad
}

func ablations(sc dcp.Scale, oracleOn bool) int64 {
	section("Ablations (DESIGN.md): backoff unit / divisor / desync / min-cwnd / compositions",
		"unit ~ effective RTT is the sweet spot; divisor 2; min-cwnd alone does not rescue DCTCP; the mechanism composes with reno/d2tcp/HULL")
	var bad int64
	opts := func(p dcp.Protocol, n int) dcp.IncastOptions {
		o := dcp.DefaultIncastOptions(p, n)
		o.Rounds = sc.Rounds
		o.WarmupRounds = sc.Warmup
		o.Testbed.Seed = sc.Seed
		o.Telemetry = sc.Telemetry
		o.Oracle = oracleOn
		return o
	}
	for _, unit := range []dcp.Duration{100 * dcp.Microsecond, 400 * dcp.Microsecond,
		800 * dcp.Microsecond, 3200 * dcp.Microsecond} {
		cfg := dcp.DefaultEnhancementConfig()
		cfg.BackoffUnit = unit
		o := opts(dcp.ProtoDCTCPPlus, 120)
		o.Factory = dcp.DCTCPPlusFactory(o.RTOMin, o.Testbed.Seed, cfg)
		r := dcp.RunIncast(o)
		fmt.Printf("unit=%-8v   goodput=%5.0f Mbps fct=%7.2fms timeouts=%d\n",
			unit, r.GoodputMbps.Mean, r.FCTms.Mean, r.Timeouts)
		bad += oracleCount(fmt.Sprintf("ablation unit=%v", unit), r)
	}
	for _, div := range []float64{1.5, 2, 4, 8} {
		cfg := dcp.DefaultEnhancementConfig()
		cfg.DivisorFactor = div
		o := opts(dcp.ProtoDCTCPPlus, 120)
		o.Factory = dcp.DCTCPPlusFactory(o.RTOMin, o.Testbed.Seed, cfg)
		r := dcp.RunIncast(o)
		fmt.Printf("divisor=%-6v goodput=%5.0f Mbps fct=%7.2fms timeouts=%d\n",
			div, r.GoodputMbps.Mean, r.FCTms.Mean, r.Timeouts)
		bad += oracleCount(fmt.Sprintf("ablation divisor=%v", div), r)
	}
	// The standard-protocol comparison grid runs through the sweep
	// orchestrator: every cell is a plain (protocol, N) point, so it is
	// content-addressable and the -cache-dir/-resume flags apply. The
	// custom-factory loops above stay direct — a factory closure has no
	// canonical serialization to key a cache on.
	pt := func(proto string, n int) dcp.SweepPoint {
		return dcp.SweepPoint{
			Topo:         dcp.SweepTopoDefault,
			Proto:        proto,
			Flows:        n,
			RTOMin:       200 * dcp.Millisecond,
			Seed:         sc.Seed,
			Rounds:       sc.Rounds,
			WarmupRounds: sc.Warmup,
			TotalBytes:   1 << 20,
			Jitter:       4 * dcp.Millisecond,
			MaxSimTime:   30 * 60 * dcp.Second,
			Oracle:       oracleOn,
		}
	}
	runner := dcp.SweepRunner{Workers: *jobs, Resume: *resume, Telemetry: sc.Telemetry}
	if *cacheDir != "" {
		var err error
		runner.Cache, err = dcp.OpenSweepCache(*cacheDir)
		cli.Fatal("report", err)
	}
	out, err := runner.RunPoints(context.Background(), "report-ablations", []dcp.SweepPoint{
		pt("dctcp+", 160),
		pt("dctcp+partial", 160),
		pt("dctcp", 80),
		pt("dctcp-min1", 80),
		pt("dctcp-min1", 120),
		pt("reno+", 80),
		pt("tcp", 80),
		pt("d2tcp", 120),
		pt("d2tcp+", 120),
	})
	cli.Fatal("report", err)
	rows := make([]dcp.IncastResult, 0, len(out.Results))
	for _, r := range out.Results {
		row, err := r.Incast()
		cli.Fatal("report", err)
		rows = append(rows, row)
	}
	dcp.PrintIncastRows(os.Stdout, rows)
	if runner.Cache != nil {
		fmt.Printf("(sweep cache: %d hit, %d run)\n", out.Hits, out.Misses)
	}
	if total, lines := dcp.SweepOracleReport(out.Results); total > 0 {
		for _, ln := range lines {
			fmt.Fprintln(os.Stderr, ln)
		}
		bad += total
	}

	// HULL composition: DCTCP over phantom-queue switches.
	hull := opts(dcp.ProtoDCTCP, 40)
	hull.Testbed = dcp.HULLTestbed()
	hull.Testbed.Seed = sc.Seed
	hull.QueueSampleEvery = 100 * dcp.Microsecond
	hr := dcp.RunIncast(hull)
	std := opts(dcp.ProtoDCTCP, 40)
	std.QueueSampleEvery = 100 * dcp.Microsecond
	sr := dcp.RunIncast(std)
	fmt.Printf("\nHULL composition at N=40: goodput=%0.f Mbps (std %0.f), queue p99=%0.f bytes (std %0.f)\n",
		hr.GoodputMbps.Mean, sr.GoodputMbps.Mean,
		hr.QueueCDF().Quantile(0.99), sr.QueueCDF().Quantile(0.99))
	bad += oracleCount("ablation hull-composition", hr)
	bad += oracleCount("ablation std-composition", sr)
	return bad
}
