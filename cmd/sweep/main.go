// Command sweep runs a declarative experiment grid — protocol × flows ×
// RTOmin × seed × fault plan × topology — over a bounded worker pool, with
// content-addressed result caching and cross-seed streaming aggregation.
// Completed jobs are memoized under -cache-dir, so re-running an identical
// sweep is pure cache replay, and an interrupted sweep picks up where it
// stopped with -resume.
//
// Examples:
//
//	sweep -protocols dctcp+,dctcp -flows 40,80,160 -seeds 1,2,3
//	sweep -preset large-n -cache-dir .sweepcache      # N=100..2000 scenario
//	sweep -preset large-n -cache-dir .sweepcache -resume   # continue/replay
//	sweep -protocols dctcp+ -flows 150 -faults "none;all" -seeds 1,2,3,4
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	dcp "dctcpplus"
	"dctcpplus/internal/cli"
)

var (
	name      = flag.String("name", "sweep", "sweep name (manifest identity inside the cache)")
	protocols = flag.String("protocols", "dctcp+,dctcp",
		"comma-separated protocols (tcp, dctcp, dctcp-min1, dctcp+, dctcp+partial, reno+, d2tcp, d2tcp+)")
	flows  = flag.String("flows", "40,80,160", "comma-separated concurrent flow counts")
	rtomin = flag.String("rtomin", "200ms", "comma-separated minimum-RTO values")
	seeds  = flag.String("seeds", "1", "comma-separated experiment seeds")
	topos  = flag.String("topos", "default", "comma-separated topologies (default, hull)")
	faults = flag.String("faults", "none",
		"semicolon-separated fault plans; each is \"none\", \"all\", or a comma list of classes (blackout,loss,rate,delay,buffer,stall)")
	faultSeed = flag.Uint64("faultseed", 1, "seed of the fault-plan generator")
	rounds    = flag.Int("rounds", 50, "request/response rounds per point")
	warmup    = flag.Int("warmup", 10, "initial rounds excluded from statistics")
	total     = flag.Int64("total", 1<<20, "total bytes per round, split across flows")
	per       = flag.Int64("perflow", 0, "bytes per flow per round (overrides -total split)")
	jitter    = flag.Duration("jitter", 4*time.Millisecond, "worker service jitter")
	preset    = flag.String("preset", "", "named scenario replacing the grid flags (large-n)")

	jobs     = flag.Int("jobs", dcp.DefaultSweepWorkers(), "concurrent sweep jobs (workers)")
	cacheDir = flag.String("cache-dir", "", "content-addressed result cache directory (empty disables caching)")
	resume   = flag.Bool("resume", false, "continue a sweep whose manifest already exists in -cache-dir")
	telOut   = flag.String("telemetry", "", "write the sweep's instrument dump to this file as JSON lines")
	quiet    = flag.Bool("q", false, "suppress progress lines")
	oracle   = flag.Bool("oracle", false,
		"run every job under the trace-conformance oracle; any violation fails the command")
	oracleTrace = flag.String("oracle-trace", "",
		"write rendered oracle violations (with minimized event windows) to this file; requires -oracle, written only on violation")
	prof = cli.ProfileFlags()
)

// validate is the usage gate on the orchestration flags and -jitter, whose
// zero the spec would read as "unset" (exit 2). The grid itself is parsed
// and semantically checked by buildSpec.
func validate() error {
	return cli.First(
		cli.ValidateJitter(*jitter),
		cli.ValidateSweep(*jobs, *cacheDir, *resume),
		cli.ValidateOracle(*oracle, *oracleTrace),
		cli.ValidateOutput("-telemetry", *telOut),
		prof.Validate(),
	)
}

func main() {
	flag.Parse()
	cli.Usage("sweep", validate())
	var spec dcp.SweepSpec
	switch *preset {
	case "":
		var err error
		spec, err = buildSpec(*name, *protocols, *flows, *rtomin, *seeds, *topos, *faults,
			*faultSeed, *rounds, *warmup, *total, *per, *jitter)
		cli.Usage("sweep", err)
	case "large-n":
		spec = dcp.LargeNSweepSpec()
	default:
		cli.Usage("sweep", fmt.Errorf("-preset %s: unknown preset (want large-n)", *preset))
	}
	spec.Oracle = *oracle
	stopProfiles, err := prof.Start()
	cli.Fatal("sweep", err)

	runner := dcp.SweepRunner{
		Workers:   *jobs,
		Resume:    *resume,
		Telemetry: dcp.NewRegistry(),
	}
	if !*quiet {
		runner.Progress = os.Stderr
	}
	if *cacheDir != "" {
		runner.Cache, err = dcp.OpenSweepCache(*cacheDir)
		cli.Fatal("sweep", err)
	}

	out, err := runner.Run(context.Background(), spec)
	cli.Fatal("sweep", err)

	cli.Fatal("sweep", dcp.WriteSweepGroups(os.Stdout, out.Groups))
	fmt.Printf("\n%d jobs: %d run, %d cached (hit rate %.0f%%)",
		out.Jobs, out.Misses, out.Hits, hitRate(out)*100)
	if out.CacheErrs > 0 {
		fmt.Printf(", %d cache errors", out.CacheErrs)
	}
	fmt.Println()
	printJobTimings(out)

	if *telOut != "" {
		cli.Fatal("sweep", cli.WriteTelemetry(runner.Telemetry, *telOut))
	}
	cli.Fatal("sweep", stopProfiles())

	if *oracle {
		if total, lines := dcp.SweepOracleReport(out.Results); total > 0 {
			cli.FailOracle("sweep", total, lines, *oracleTrace)
		}
		fmt.Printf("oracle: clean (%d jobs)\n", len(out.Results))
	}
}

// buildSpec assembles the declarative grid from the flag surface and runs
// the Spec's own Validate, the semantic gate, so a grid the runner would
// refuse — a -name that escapes the cache directory — is a usage error
// before the cache is opened.
func buildSpec(name, protocols, flows, rtomin, seeds, topos, faults string,
	faultSeed uint64, rounds, warmup int, total, per int64, jitter time.Duration) (dcp.SweepSpec, error) {
	protoNames, err := cli.ProtocolNames(protocols)
	if err != nil {
		return dcp.SweepSpec{}, err
	}
	topoNames, err := cli.TopoNames(topos)
	if err != nil {
		return dcp.SweepSpec{}, err
	}
	flowCounts, err := cli.ParseFlowCounts(flows)
	if err != nil {
		return dcp.SweepSpec{}, err
	}
	rtoMins, err := cli.ParseDurations(rtomin)
	if err != nil {
		return dcp.SweepSpec{}, err
	}
	seedList, err := cli.ParseSeeds(seeds)
	if err != nil {
		return dcp.SweepSpec{}, err
	}
	spec := dcp.SweepSpec{
		Name:         name,
		Protocols:    protoNames,
		Flows:        flowCounts,
		RTOMins:      rtoMins,
		Seeds:        seedList,
		Topos:        topoNames,
		Faults:       parseFaultPlans(faults),
		FaultSeed:    faultSeed,
		Rounds:       rounds,
		WarmupRounds: warmup,
		TotalBytes:   total,
		BytesPerFlow: per,
		Jitter:       dcp.Duration(jitter),
	}
	return spec, spec.Validate()
}

// parseFaultPlans splits the semicolon-separated plan list, mapping the
// explicit "none" spelling to the empty (clean) plan.
func parseFaultPlans(spec string) []string {
	var out []string
	for _, plan := range strings.Split(spec, ";") {
		plan = strings.TrimSpace(plan)
		if plan == "none" {
			plan = ""
		}
		out = append(out, plan)
	}
	return out
}

func hitRate(out *dcp.SweepOutcome) float64 {
	if done := out.Completed(); done > 0 {
		return float64(out.Hits) / float64(done)
	}
	return 0
}

// printJobTimings summarizes per-job wall time over the jobs that actually
// executed (cache hits cost no simulation time).
func printJobTimings(out *dcp.SweepOutcome) {
	if out.Misses == 0 {
		return
	}
	var sum, max int64
	for _, ns := range out.JobWallNs {
		sum += ns
		if ns > max {
			max = ns
		}
	}
	mean := time.Duration(sum / int64(out.Misses)).Round(time.Microsecond)
	fmt.Printf("per-job wall time: mean %v, max %v (%d executed)\n",
		mean, time.Duration(max).Round(time.Microsecond), out.Misses)
}
