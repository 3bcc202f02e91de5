// Command report runs the complete reproduction battery — dcp.Battery:
// every figure and table of the paper's evaluation, the ablations and, with
// -faults, the resilience table — and prints a single consolidated report
// with the paper's expectation next to each measured result. EXPERIMENTS.md
// is generated from this tool's output. -only runs just the entries it
// names.
//
//	report                                # default scale (~minutes)
//	report -rounds 200                    # closer to paper statistics (slower)
//	report -only "figure 2,figure 14"     # Fig. 2 + Table I, then Fig. 14
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	dcp "dctcpplus"
	"dctcpplus/internal/cli"
)

var (
	rounds = flag.Int("rounds", 50, "incast rounds per experiment point")
	warmup = flag.Int("warmup", 10, "initial rounds excluded from statistics")
	seed   = flag.Uint64("seed", 1, "experiment seed")
	telOut = flag.String("telemetry", "",
		"write the battery's instrument dump to this file as JSON lines")
	baseline = flag.String("baseline", "",
		"write the run manifest (config, seed, code version, instrument dump) to this JSON file; diffable against another run's manifest")
	faults = flag.Bool("faults", false,
		"append the fault-injection resilience table (DCTCP vs DCTCP+ clean and under each fault class)")
	jobs   = flag.Int("jobs", dcp.DefaultSweepWorkers(), "concurrent experiment points (workers)")
	oracle = flag.Bool("oracle", false,
		"run the ablation and resilience sections under the trace-conformance oracle; violations fail the report")
	only = flag.String("only", "",
		"run only these entries: comma-separated, case-insensitive prefixes of their titles, ending at a word boundary (\"figure 2\", \"figures 11\", \"resilience\"); a named entry runs even without -faults")
	prof = cli.ProfileFlags()
)

// validate is the usage gate (exit 2): every entry needs a measured round
// after warmup and a runnable worker pool, and every output file a parent
// directory.
func validate() error {
	return cli.First(
		cli.ValidateRounds(*rounds, *warmup),
		cli.ValidateSweep(*jobs, "", false),
		cli.ValidateOutput("-telemetry", *telOut),
		cli.ValidateOutput("-baseline", *baseline),
		prof.Validate(),
	)
}

// selectSections returns the entries of battery that only names, in
// battery order; an empty only names them all. Each comma-separated value
// must be a case-insensitive prefix of exactly one entry's title, ending at
// a word boundary: "figure 1" names Figure 1, not Figure 13.
func selectSections(battery []dcp.Section, only string) ([]dcp.Section, error) {
	if only == "" {
		return battery, nil
	}
	picked := make([]bool, len(battery))
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		var hits []int
		for i, s := range battery {
			if titlePrefix(s.Head().Title, name) {
				hits = append(hits, i)
			}
		}
		if len(hits) != 1 {
			titles := make([]string, len(battery))
			for i, s := range battery {
				titles[i] = s.Head().Title
			}
			return nil, fmt.Errorf("-only %q: names %d entries, want 1; the titles are:\n  %s",
				name, len(hits), strings.Join(titles, "\n  "))
		}
		picked[hits[0]] = true
	}
	var out []dcp.Section
	for i, s := range battery {
		if picked[i] {
			out = append(out, s)
		}
	}
	return out, nil
}

// titlePrefix reports whether name is a case-insensitive prefix of title
// that ends at a word boundary. The empty name is no such prefix.
func titlePrefix(title, name string) bool {
	if len(name) > len(title) || !strings.EqualFold(title[:len(name)], name) {
		return false
	}
	r, n := utf8.DecodeRuneInString(title[len(name):])
	return n == 0 || !unicode.IsLetter(r) && !unicode.IsDigit(r)
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
	sections, err := selectSections(dcp.Battery(scale), *only)
	cli.Usage("report", err)
	stopProfiles, err := prof.Start()
	cli.Fatal("report", err)
	fmt.Println("DCTCP+ reproduction report")
	fmt.Printf("rounds=%d warmup=%d seed=%d\n", *rounds, *warmup, *seed)

	// The battery is the catalogue, in paper order. Oracle violations and
	// points MaxSimTime cut short are reported as they are found and fail
	// the report at the end, so the rest of its output is not lost.
	var violations int64
	var truncated int
	for _, s := range sections {
		if _, ok := s.(*dcp.Resilience); ok && !*faults && *only == "" {
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
		cut := truncations(h.Title, *seed, s.Incast())
		for _, ln := range append(lines, cut...) {
			fmt.Fprintln(os.Stderr, ln)
		}
		violations += total
		truncated += len(cut)
	}
	cli.Fatal("report", stopProfiles())
	cli.Fatal("report", writeTelemetry(scale, time.Since(start)))
	fmt.Printf("\nreport completed in %v\n", time.Since(start).Round(time.Second))
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "report: %d oracle violations\n", violations)
	}
	if violations > 0 || truncated > 0 {
		os.Exit(1)
	}
	if *oracle {
		fmt.Println("oracle: clean")
	}
}

// truncations names every result of the entry title that stopped before its
// last round: protocol, N, seed, measured and asked rounds, and sim time.
func truncations(title string, seed uint64, results []dcp.IncastResult) []string {
	var lines []string
	for i, r := range results {
		if r.Truncated != nil {
			lines = append(lines, fmt.Sprintf("report: %s: point %d (%v N=%d seed %d): %v",
				title, i, r.Protocol, r.Flows, seed, r.Truncated))
		}
	}
	return lines
}

// writeTelemetry dumps the shared registry to the -telemetry and -baseline
// outputs.
func writeTelemetry(scale dcp.Scale, wall time.Duration) error {
	if *telOut != "" {
		if err := cli.WriteTelemetry(scale.Telemetry, *telOut); err != nil {
			return err
		}
	}
	if *baseline != "" {
		m, err := dcp.NewManifest("report", *seed)
		if err != nil {
			return err
		}
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
