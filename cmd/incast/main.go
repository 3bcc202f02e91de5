// Command incast runs the paper's incast experiments (Figures 1, 6, 7, 8,
// and the N = 100…2000 large-N scenario beyond them) as one declarative
// grid — protocol × flows × RTOmin × seed × fault plan × topology. In each
// point N concurrent flows answer a barrier-synchronized aggregator through
// the bottleneck switch; the tool prints one row per point with goodput,
// FCT and timeouts, averaged across the point's seeds.
//
// Examples:
//
//	incast -protocols dctcp,tcp -flows 1,5,10,20,35,50,80,100      # Fig. 1
//	incast -protocols dctcp+partial -flows 20,60,100,160,200       # Fig. 6
//	incast -protocols dctcp+,dctcp,tcp -flows 20,60,120,200        # Fig. 7
//	incast -protocols dctcp,tcp -rtomin 10ms -flows 20,60,120,200  # Fig. 8
//	incast -protocols dctcp+ -flows 200 -rounds 1000               # paper scale
//	incast -protocols dctcp+,dctcp -flows 40,80,160 -seeds 1,2,3   # cross-seed means
//	incast -protocols dctcp+,dctcp -flows 150 -faults "none;all"   # resilience
//	incast -preset large-n -cache-dir .sweepcache                  # N=100..2000
//
// The grid runs through the sweep orchestrator (internal/sweep): -jobs
// bounds the worker pool, and -cache-dir stores every completed point under
// a content address. The cache journals each run under -name: a second run
// under the same name needs -resume, which continues an interrupted grid or
// replays a finished one, and is refused if the grid changed. A changed
// grid takes a new -name; every point it shares with earlier runs is still
// a cache hit. Ctrl-C interrupts a grid cleanly: running points finish, the
// rest are skipped, the journal is written, and the command exits 1 naming
// how many points completed and how many were skipped.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	dcp "dctcpplus"
	"dctcpplus/internal/cli"
)

var (
	name      = flag.String("name", "incast", "run name (the manifest's identity inside -cache-dir)")
	protocols = flag.String("protocols", "dctcp+,dctcp,tcp",
		"comma-separated protocols (tcp, dctcp, dctcp-min1, dctcp+, dctcp+partial, reno+, d2tcp, d2tcp+)")
	flows  = flag.String("flows", "10,20,40,60,80,120,160,200", "comma-separated concurrent flow counts")
	rtomin = flag.String("rtomin", "200ms", "comma-separated minimum (and initial) RTO values")
	seeds  = flag.String("seeds", "1", "comma-separated experiment seeds (each row averages its point's seeds)")
	topos  = flag.String("topos", "default", "comma-separated topologies (default, hull)")
	faults = flag.String("faults", "",
		"semicolon-separated fault plans; each is empty or \"none\" (clean), \"all\", or a comma list of classes (blackout,loss,rate,delay,buffer,stall)")
	faultSeed = flag.Uint64("faultseed", 1, "seed of the fault-plan generator")
	rounds    = flag.Int("rounds", 50, "request/response rounds per point (paper: 1000)")
	warmup    = flag.Int("warmup", 10, "initial rounds excluded from statistics")
	total     = flag.Int64("total", 1<<20, "total bytes per round, split across flows (1MB/N each)")
	per       = flag.Int64("perflow", 0, "bytes per flow per round (overrides -total split)")
	jitter    = flag.Duration("jitter", 4*time.Millisecond, "worker service jitter")
	preset    = flag.String("preset", "", "named scenario replacing the grid flags (large-n)")

	jobs     = flag.Int("jobs", dcp.DefaultSweepWorkers(), "concurrent experiment points (workers)")
	cacheDir = flag.String("cache-dir", "", "content-addressed result cache directory (empty disables caching)")
	resume   = flag.Bool("resume", false, "continue or replay the run whose manifest -name already has in -cache-dir")
	telOut   = flag.String("telemetry", "", "write the run's instrument dump to this file as JSON lines")
	quiet    = flag.Bool("q", false, "suppress progress lines")
	oracle   = flag.Bool("oracle", false,
		"run every point under the trace-conformance oracle; any violation fails the command")
	oracleTrace = flag.String("oracle-trace", "",
		"write rendered oracle violations (with minimized event windows) to this file; requires -oracle, written only on violation")
	prof = cli.ProfileFlags()
)

// validate is the usage gate: every error it returns is a bad command line
// (exit 2), raised before the cache is opened or any point runs. The scalar
// checks come first — the spec reads a zero -rounds, -total, -jitter or
// -faultseed as "unset" and would silently run its default — then the grid
// is parsed and checked by the spec's own Validate.
func validate() (dcp.SweepSpec, error) {
	if err := cli.First(
		cli.ValidateRounds(*rounds, *warmup),
		cli.ValidateBytes(*total, *per),
		cli.ValidateJitter(*jitter),
		cli.ValidateFaultSeed(*faultSeed),
		cli.ValidateSweep(*jobs, *cacheDir, *resume),
		cli.ValidateOracle(*oracle, *oracleTrace),
		cli.ValidateOutput("-telemetry", *telOut),
		prof.Validate(),
	); err != nil {
		return dcp.SweepSpec{}, err
	}
	switch *preset {
	case "":
		return buildSpec(*name, *protocols, *flows, *rtomin, *seeds, *topos, *faults,
			*faultSeed, *rounds, *warmup, *total, *per, *jitter)
	case "large-n":
		return dcp.LargeNSweepSpec(), nil
	}
	return dcp.SweepSpec{}, fmt.Errorf("-preset %s: unknown preset (want large-n)", *preset)
}

func main() {
	flag.Parse()
	spec, err := validate()
	cli.Usage("incast", err)
	spec.Oracle = *oracle
	stopProfiles, err := prof.Start()
	cli.Fatal("incast", err)

	runner := dcp.SweepRunner{Workers: *jobs, Resume: *resume}
	if *telOut != "" {
		runner.Telemetry = dcp.NewRegistry()
	}
	if !*quiet {
		runner.Progress = os.Stderr
	}
	if *cacheDir != "" {
		runner.Cache, err = dcp.OpenSweepCache(*cacheDir)
		cli.Fatal("incast", err)
	}
	// Ctrl-C cancels the run: in-flight points finish, the rest are
	// skipped, and the journal records what completed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	out, err := runner.Run(ctx, spec)
	if errors.Is(err, context.Canceled) {
		err = fmt.Errorf("interrupted: %d of %d jobs completed, %d skipped", out.Completed(), out.Jobs, out.Skipped)
	}
	cli.Fatal("incast", err)

	cli.Fatal("incast", dcp.WriteSweepGroups(os.Stdout, out.Groups))
	printSummary(out)
	if *telOut != "" {
		cli.Fatal("incast", cli.WriteTelemetry(runner.Telemetry, *telOut))
	}
	cli.Fatal("incast", stopProfiles())

	if *oracle {
		if total, lines := dcp.SweepOracleReport(out.Results); total > 0 {
			cli.FailOracle("incast", total, lines, *oracleTrace)
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

// printSummary follows the table with the cache accounting and the per-job
// wall time over the jobs that actually executed (cache hits cost no
// simulation time).
func printSummary(out *dcp.SweepOutcome) {
	var rate float64
	if done := out.Completed(); done > 0 {
		rate = float64(out.Hits) / float64(done)
	}
	fmt.Printf("\n%d jobs: %d run, %d cached (hit rate %.0f%%)", out.Jobs, out.Misses, out.Hits, rate*100)
	if out.CacheErrs > 0 {
		fmt.Printf(", %d cache errors", out.CacheErrs)
	}
	fmt.Println()
	if out.Misses == 0 {
		return
	}
	var sum, longest int64
	for _, ns := range out.JobWallNs {
		sum += ns
		longest = max(longest, ns)
	}
	fmt.Printf("per-job wall time: mean %v, max %v (%d executed)\n",
		time.Duration(sum/int64(out.Misses)).Round(time.Microsecond),
		time.Duration(longest).Round(time.Microsecond), out.Misses)
}
