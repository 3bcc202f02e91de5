// Command perf is the repository's benchmark. It measures host time of the
// deterministic simulator: each workload is one closed-loop call into the
// public facade, one call at a time from a single goroutine, run in a child
// process per repetition so peak RSS and collector state are per run.
//
//	go run ./cmd/perf                       # every workload, timed then traced; writes perf.json
//	go run ./cmd/perf -workload incast_bulk # one workload
//	go run ./cmd/perf -smoke                # everything at 1/50 scale, a few seconds
//	go run ./cmd/perf -compare old.json new.json
//
// The driver form is
//
//	go run ./cmd/perf --workload W --seed N --seconds S --trace 0|1
//
// whose last line of standard output is one JSON object: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer metrics. See README.md in
// this directory for the metric tables and how to read the output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is the parsed command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int // 0 timed runs, 1 traced run, -1 both
	div      int

	out        string
	traceOut   string
	cpuProfile string
	memProfile string
	benchFile  string
	smoke      bool
	compare    bool

	// Child-process protocol (set by the parent, not by users).
	child   string
	spawned int64
	tmp     string
}

// smokeDiv is the size divisor -smoke runs at.
const smokeDiv = 50

// run is the whole program behind a testable seam.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all of them)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed, threaded into Testbed.Seed / SweepSpec.Seeds")
	fs.Float64Var(&o.seconds, "seconds", 15, "keep starting timed repetitions until this many seconds have been measured")
	fs.IntVar(&o.trace, "trace", -1, "0: timed runs only, 1: traced run only (default: both; 0 when -workload is given)")
	fs.IntVar(&o.div, "div", 1, "run at 1/div of full size")
	fs.StringVar(&o.out, "out", "", "write the JSON report here (default perf.json when running every workload)")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans here as JSON lines")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write the twin run's raw CPU profile here (per workload: name.<workload>.ext)")
	fs.StringVar(&o.memProfile, "memprofile", "", "write the twin run's heap profile here (per workload: name.<workload>.ext)")
	fs.StringVar(&o.benchFile, "bench", "BENCHMARK.json", "benchmark definition -compare takes its bounds from")
	fs.BoolVar(&o.smoke, "smoke", false, "every workload and the traced run at 1/50 scale, one repetition")
	fs.BoolVar(&o.compare, "compare", false, "compare two JSON reports: perf -compare old.json new.json")
	fs.StringVar(&o.child, "child", "", "internal: run one repetition (rep) or one traced twin run (twin)")
	fs.Int64Var(&o.spawned, "spawned", 0, "internal: unix nanoseconds at which the parent started this child")
	fs.StringVar(&o.tmp, "tmp", "", "scratch directory (default: a fresh one under the working directory, removed at exit)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}

	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perf: -compare needs two report files")
			return 2
		}
		code, err := compareFiles(stdout, o.benchFile, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		return code
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perf: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if o.div < 1 || o.seconds <= 0 || o.trace < -1 || o.trace > 1 {
		fmt.Fprintln(stderr, "perf: need -div >= 1, -seconds > 0, -trace 0 or 1")
		return 2
	}
	if o.child != "" {
		if err := childMain(o, stdout); err != nil {
			return fail(err)
		}
		return 0
	}

	selected := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "perf: unknown workload %q\n", o.workload)
			return 2
		}
		selected = []workloadDef{w}
		if o.trace < 0 {
			o.trace = 0
		}
	} else if o.out == "" && !o.smoke {
		o.out = "perf.json"
	}
	if o.smoke {
		o.div, o.seconds = smokeDiv, 0.001 // one repetition each
	}
	if o.tmp == "" {
		dir, err := os.MkdirTemp(".", ".perf-tmp-")
		if err != nil {
			return fail(err)
		}
		defer os.RemoveAll(dir)
		o.tmp = dir
	}

	rep := report{Schema: reportSchema, Seed: o.seed, Div: o.div, GoVersion: runtime.Version(), CPUs: runtime.NumCPU()}
	var (
		spans []span
		drv   map[string]float64
	)
	if o.trace != 0 {
		// The micro-drivers are workload-independent: once per invocation.
		rec := recorder{workload: fmt.Sprintf("drivers/seed=%d", o.seed)}
		var err error
		if drv, err = drivers(o.seed, o.div, o.tmp, &rec); err != nil {
			return fail(err)
		}
		spans = rec.spans
	}
	for _, w := range selected {
		wr := workloadReport{Name: w.name, EndToEnd: map[string]sampleSet{}}
		if o.trace != 1 {
			if err := timedRuns(o, w, &wr); err != nil {
				return fail(err)
			}
		}
		if o.trace != 0 {
			s, err := tracedRun(o, w, len(selected) > 1, drv, &wr)
			if err != nil {
				return fail(err)
			}
			spans = append(spans, s...)
		}
		printWorkload(stdout, wr)
		rep.Workloads = append(rep.Workloads, wr)
	}

	if o.traceOut != "" {
		if err := writeFile(o.traceOut, func(w io.Writer) error { return writeSpans(w, spans) }); err != nil {
			return fail(err)
		}
	}
	if o.out != "" {
		if err := writeFile(o.out, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", " ")
			return enc.Encode(rep)
		}); err != nil {
			return fail(err)
		}
	}
	if o.workload != "" {
		// The driver's contract: the last line is the result object.
		return printContractLine(stdout, rep.Workloads[0], o.trace)
	}
	for _, wr := range rep.Workloads {
		if wr.Failed > 0 {
			return 1
		}
	}
	return 0
}

// writeFile creates path, hands it to write, and reports the first error
// of write and close.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// profilePath names a per-workload profile file: when several workloads
// run, the workload's name goes before the extension.
func profilePath(path, workload string, several bool) string {
	if path == "" || !several {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + workload + ext
}

// printWorkload prints every metric of one workload by name with its unit.
func printWorkload(w io.Writer, wr workloadReport) {
	fmt.Fprintf(w, "== %s  sim_digest=%.16s  attempted=%d failed=%d\n", wr.Name, wr.Digest, wr.Attempted, wr.Failed)
	for _, p := range wr.Problems {
		fmt.Fprintf(w, "   CHECK FAILED: %s\n", p)
	}
	if wr.OracleViolations > 0 {
		fmt.Fprintf(w, "   note: the conformance oracle reported %d violation(s) on this seed (reported, not failed)\n", wr.OracleViolations)
	}
	for _, m := range reportedMetrics {
		if s, ok := wr.EndToEnd[m.Name]; ok {
			fmt.Fprintf(w, "   %-36s %14.4f %-6s (min %.4f, max %.4f, n=%d)\n", m.Name, s.Median, m.Unit, s.Min, s.Max, s.N)
		}
	}
	names := make([]string, 0, len(wr.PerLayer))
	for name := range wr.PerLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "   %-36s %14.4f %s\n", name, wr.PerLayer[name], unitOf(name))
	}
}

// contractResult is the one-line object the benchmark driver reads.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printContractLine(w io.Writer, wr workloadReport, trace int) int {
	res := contractResult{
		Correct:   wr.Failed == 0,
		Attempted: wr.Attempted,
		Failed:    wr.Failed,
		Metrics:   map[string]contractMetric{},
	}
	if trace == 0 {
		for _, m := range endToEndMetrics {
			res.Metrics[m.Name] = contractMetric{wr.EndToEnd[m.Name].Median, m.Unit}
		}
	} else {
		for _, m := range perLayerMetrics {
			res.Metrics[m.Name] = contractMetric{wr.PerLayer[m.Name], m.Unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	return 0
}
