// Package cli is the one flag-validation, list-parsing and exit-status
// layer behind the cmd/ binaries. Every command turns a bad flag into the
// same one-line "tool: -flag value: reason" usage error with status 2
// here, at the flag boundary, instead of a panic (or a hung run) from
// whichever layer first trips over the value; run and oracle failures
// exit 1.
package cli

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"dctcpplus/internal/sim"
	"dctcpplus/internal/telemetry"
)

// Usage exits 2 with "tool: err" on stderr when err is non-nil: the
// command line asked for something the tool cannot run.
func Usage(tool string, err error) { exitOn(tool, err, 2) }

// Fatal exits 1 with "tool: err" on stderr when err is non-nil: the command
// line was fine, the run (or writing its output) failed.
func Fatal(tool string, err error) { exitOn(tool, err, 1) }

func exitOn(tool string, err error, status int) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		os.Exit(status)
	}
}

// First returns the first non-nil error, so a command states its usage
// gate as one ordered list of checks.
func First(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ValidateRounds rejects -rounds/-warmup settings that leave no measured
// round: exp.RunIncast panics on them.
func ValidateRounds(rounds, warmup int) error {
	switch {
	case rounds <= 0:
		return fmt.Errorf("-rounds %d: need at least one round", rounds)
	case warmup < 0:
		return fmt.Errorf("-warmup %d: cannot be negative", warmup)
	case warmup >= rounds:
		return fmt.Errorf("-warmup %d >= -rounds %d: no measured rounds remain", warmup, rounds)
	}
	return nil
}

// ValidateBytes rejects a round with nothing to send: -perflow overrides
// the -total split, so one of them must be positive.
func ValidateBytes(total, perflow int64) error {
	switch {
	case perflow < 0:
		return fmt.Errorf("-perflow %d: cannot be negative", perflow)
	case perflow == 0 && total <= 0:
		return fmt.Errorf("-total %d: need a positive byte budget (or set -perflow)", total)
	}
	return nil
}

// ValidateJitter rejects a non-positive worker service jitter: a negative
// one is meaningless, and the sweep spec reads 0 as "unset", so -jitter 0
// would silently run with the 4 ms default.
func ValidateJitter(jitter time.Duration) error {
	if jitter <= 0 {
		return fmt.Errorf("-jitter %v: must be positive", jitter)
	}
	return nil
}

// ValidateFaultSeed rejects a zero fault-plan seed for the same reason: the
// sweep spec reads 0 as "unset", so -faultseed 0 would silently run seed 1.
func ValidateFaultSeed(seed uint64) error {
	if seed == 0 {
		return fmt.Errorf("-faultseed 0: must be positive")
	}
	return nil
}

// ValidateSweep rejects orchestration settings the sweep runner cannot
// honor: the worker pool needs at least one worker, the cache directory's
// parent must already exist (a typo'd path should fail loudly, not mint a
// directory tree), and resume without a cache is meaningless.
func ValidateSweep(jobs int, cacheDir string, resume bool) error {
	switch {
	case jobs < 1:
		return fmt.Errorf("-jobs %d: need at least one worker", jobs)
	case resume && cacheDir == "":
		return fmt.Errorf("-resume: requires -cache-dir (resume replays the cache)")
	}
	return ValidateOutput("-cache-dir", cacheDir)
}

// ValidateOracle ties the trace output to the checker: an -oracle-trace
// without -oracle would silently never be written, and (like -cache-dir) a
// typo'd trace path should fail at the flag boundary, not after the sweep.
func ValidateOracle(oracle bool, trace string) error {
	if trace != "" && !oracle {
		return fmt.Errorf("-oracle-trace: requires -oracle (the trace renders oracle violations)")
	}
	return ValidateOutput("-oracle-trace", trace)
}

// ValidateOutput rejects an output path whose parent directory does not
// exist. The commands write their output files after the run, so without
// this gate a typo'd directory would waste the whole run and then fail. An
// empty path (the flag unset) passes.
func ValidateOutput(flagName, path string) error {
	if path == "" {
		return nil
	}
	parent := filepath.Dir(filepath.Clean(path))
	if fi, err := os.Stat(parent); err != nil || !fi.IsDir() {
		return fmt.Errorf("%s %s: parent directory %s does not exist", flagName, path, parent)
	}
	return nil
}

// SplitCSV splits a comma-separated list, trimming blanks and dropping
// empty fields.
func SplitCSV(csv string) []string {
	var out []string
	for _, f := range strings.Split(csv, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// ProtocolNames splits a -protocols value for a sweep spec, which takes
// the names and checks them itself. An empty list is an error here: the
// spec would silently substitute its default protocol, where -flows "" is
// already a usage error.
func ProtocolNames(csv string) ([]string, error) { return nameList("-protocols", "protocol", csv) }

// TopoNames splits a -topos value the same way: with no name left the spec
// would silently run its default topology.
func TopoNames(csv string) ([]string, error) { return nameList("-topos", "topology", csv) }

// nameList splits a comma-separated list of names the sweep spec checks
// itself, refusing only the list that has none.
func nameList(flagName, what, csv string) ([]string, error) {
	names := SplitCSV(csv)
	if len(names) == 0 {
		return nil, fmt.Errorf("%s %q: need at least one %s", flagName, csv, what)
	}
	return names, nil
}

// parseList parses every comma-separated field (blank-trimmed, empty
// fields included, so "10,,20" is an error) with parse, naming the
// offending field as a bad <what>.
func parseList[T any](csv, what string, parse func(string) (T, bool)) ([]T, error) {
	var out []T
	for _, f := range strings.Split(csv, ",") {
		v, ok := parse(strings.TrimSpace(f))
		if !ok {
			return nil, fmt.Errorf("bad %s %q", what, f)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseFlowCounts parses a comma-separated list of positive flow counts.
func ParseFlowCounts(csv string) ([]int, error) {
	return parseList(csv, "flow count", func(f string) (int, bool) {
		n, err := strconv.Atoi(f)
		return n, err == nil && n > 0
	})
}

// ParseSeeds parses a comma-separated list of experiment seeds.
func ParseSeeds(csv string) ([]uint64, error) {
	return parseList(csv, "seed", func(f string) (uint64, bool) {
		n, err := strconv.ParseUint(f, 10, 64)
		return n, err == nil
	})
}

// ParseDurations parses a comma-separated list of positive durations.
func ParseDurations(csv string) ([]sim.Duration, error) {
	return parseList(csv, "duration", func(f string) (sim.Duration, bool) {
		d, err := time.ParseDuration(f)
		return sim.Duration(d), err == nil && d > 0
	})
}

// Profiles is the -cpuprofile/-memprofile pair the experiment commands
// take: raw runtime/pprof output for `go tool pprof`.
type Profiles struct {
	CPU, Mem string
}

// ProfileFlags registers -cpuprofile and -memprofile on the command line.
func ProfileFlags() *Profiles {
	p := &Profiles{}
	flag.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile of the run to this file")
	flag.StringVar(&p.Mem, "memprofile", "", "write a heap profile, taken after the run, to this file")
	return p
}

// Validate is the profiles' usage gate: each path needs a parent directory.
func (p *Profiles) Validate() error {
	return First(ValidateOutput("-cpuprofile", p.CPU), ValidateOutput("-memprofile", p.Mem))
}

// Start starts the CPU profile, when one is asked for. The returned stop
// ends it and writes the heap profile, when one is asked for; a command
// calls it once its run is done.
func (p *Profiles) Start() (stop func() error, err error) {
	var cpu *os.File
	if p.CPU != "" {
		if cpu, err = os.Create(p.CPU); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if p.Mem == "" {
			return nil
		}
		f, err := os.Create(p.Mem)
		if err != nil {
			return err
		}
		runtime.GC() // the heap profile reports the state as of the last collection
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// WriteTelemetry dumps the registry's instruments to path as JSON lines
// and reports the count on stdout.
func WriteTelemetry(reg *telemetry.Registry, path string) error {
	snap := reg.Snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.WriteJSONLines(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("telemetry: %d instruments -> %s\n", len(snap.Instruments), path)
	return nil
}

// FailOracle renders a sweep's conformance violations to stderr — and to
// the -oracle-trace file, which CI uploads as the failure artifact — then
// exits 1.
func FailOracle(tool string, total int64, lines []string, trace string) {
	for _, ln := range lines {
		fmt.Fprintln(os.Stderr, ln)
	}
	if trace != "" {
		data := strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(trace, []byte(data), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		} else {
			fmt.Fprintf(os.Stderr, "%s: oracle trace -> %s\n", tool, trace)
		}
	}
	fmt.Fprintf(os.Stderr, "%s: %d oracle violations\n", tool, total)
	os.Exit(1)
}
