package cli

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"dctcpplus/internal/sim"
	"dctcpplus/internal/telemetry"
)

func TestValidateRounds(t *testing.T) {
	cases := []struct {
		name           string
		rounds, warmup int
		wantErr        string // substring; "" = valid
	}{
		{"defaults", 50, 10, ""},
		{"paper scale", 1000, 10, ""},
		{"single measured round", 1, 0, ""},
		{"zero rounds", 0, 0, "-rounds 0: need at least one round"},
		{"negative rounds", -5, 0, "-rounds -5: need at least one round"},
		{"negative warmup", 50, -1, "-warmup -1: cannot be negative"},
		{"warmup equals rounds", 10, 10, "-warmup 10 >= -rounds 10: no measured rounds remain"},
		{"warmup exceeds rounds", 10, 20, "-warmup 20 >= -rounds 10: no measured rounds remain"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkErr(t, ValidateRounds(c.rounds, c.warmup), c.wantErr)
		})
	}
}

func TestValidateBytes(t *testing.T) {
	cases := []struct {
		name           string
		total, perflow int64
		wantErr        string
	}{
		{"defaults", 1 << 20, 0, ""},
		{"perflow overrides total", 0, 64 << 10, ""},
		{"zero byte budget", 0, 0, "-total 0: need a positive byte budget (or set -perflow)"},
		{"negative total", -1, 0, "-total -1: need a positive byte budget"},
		{"negative perflow", 1 << 20, -4096, "-perflow -4096: cannot be negative"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkErr(t, ValidateBytes(c.total, c.perflow), c.wantErr)
		})
	}
}

func TestValidateJitter(t *testing.T) {
	cases := []struct {
		name    string
		jitter  time.Duration
		wantErr string
	}{
		{"defaults", 4 * time.Millisecond, ""},
		{"zero jitter", 0, "-jitter 0s: must be positive"},
		{"negative jitter", -time.Millisecond, "-jitter -1ms: must be positive"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkErr(t, ValidateJitter(c.jitter), c.wantErr)
		})
	}
}

func TestValidateFaultSeed(t *testing.T) {
	checkErr(t, ValidateFaultSeed(1), "")
	checkErr(t, ValidateFaultSeed(0), "-faultseed 0: must be positive")
}

func TestValidateSweep(t *testing.T) {
	parent := t.TempDir()
	cases := []struct {
		name     string
		jobs     int
		cacheDir string
		resume   bool
		wantErr  string
	}{
		{"defaults, no cache", 4, "", false, ""},
		{"single worker", 1, "", false, ""},
		{"cache under existing parent", 2, parent + "/cache", false, ""},
		{"resume with cache", 2, parent + "/cache", true, ""},
		{"zero jobs", 0, "", false, "-jobs 0: need at least one worker"},
		{"negative jobs", -3, "", false, "-jobs -3: need at least one worker"},
		{"nonexistent cache parent", 2, parent + "/no/such/cache", false,
			"-cache-dir " + parent + "/no/such/cache: parent directory " + parent + "/no/such does not exist"},
		{"resume without cache", 2, "", true, "-resume: requires -cache-dir"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkErr(t, ValidateSweep(c.jobs, c.cacheDir, c.resume), c.wantErr)
		})
	}
}

func TestValidateOracle(t *testing.T) {
	parent := t.TempDir()
	cases := []struct {
		name    string
		oracle  bool
		trace   string
		wantErr string
	}{
		{"both off", false, "", ""},
		{"oracle without trace", true, "", ""},
		{"oracle with trace", true, parent + "/viol.txt", ""},
		{"trace without oracle", false, parent + "/viol.txt", "-oracle-trace: requires -oracle"},
		{"nonexistent trace parent", true, parent + "/no/such/viol.txt",
			"-oracle-trace " + parent + "/no/such/viol.txt: parent directory " + parent + "/no/such does not exist"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkErr(t, ValidateOracle(c.oracle, c.trace), c.wantErr)
		})
	}
}

func TestValidateOutput(t *testing.T) {
	parent := t.TempDir()
	file := filepath.Join(parent, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		path    string
		wantErr string
	}{
		{"unset", "", ""},
		{"bare file name", "tel.json", ""},
		{"existing parent", parent + "/tel.json", ""},
		{"nonexistent parent", parent + "/no/such/tel.json",
			"-telemetry " + parent + "/no/such/tel.json: parent directory " + parent + "/no/such does not exist"},
		{"parent is a file", file + "/tel.json", "parent directory " + file + " does not exist"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkErr(t, ValidateOutput("-telemetry", c.path), c.wantErr)
		})
	}
}

func checkErr(t *testing.T, err error, want string) {
	t.Helper()
	switch {
	case want == "" && err != nil:
		t.Errorf("unexpected error %v", err)
	case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
		t.Errorf("error = %v, want one containing %q", err, want)
	}
}

func TestFirst(t *testing.T) {
	a, b := errors.New("a"), errors.New("b")
	if got := First(nil, a, b); got != a {
		t.Errorf("First(nil, a, b) = %v, want a", got)
	}
	if got := First(nil, nil); got != nil {
		t.Errorf("First(nil, nil) = %v", got)
	}
}

func TestSplitCSV(t *testing.T) {
	cases := []struct {
		csv  string
		want []string
	}{
		{"dctcp+,dctcp", []string{"dctcp+", "dctcp"}},
		{" default , hull ", []string{"default", "hull"}},
		{"tcp,,reno+,", []string{"tcp", "reno+"}},
		{"", nil},
	}
	for _, c := range cases {
		if got := SplitCSV(c.csv); !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitCSV(%q) = %q, want %q", c.csv, got, c.want)
		}
	}
}

func TestProtocolNames(t *testing.T) {
	got, err := ProtocolNames(" dctcp+ ,tcp,")
	if err != nil || !reflect.DeepEqual(got, []string{"dctcp+", "tcp"}) {
		t.Errorf("ProtocolNames = %q, %v", got, err)
	}
	for _, csv := range []string{"", " ", ",,"} {
		_, err := ProtocolNames(csv)
		checkErr(t, err, "-protocols")
	}
}

func TestTopoNames(t *testing.T) {
	cases := []struct {
		csv     string
		want    []string
		wantErr string
	}{
		{"default", []string{"default"}, ""},
		{" default , hull,", []string{"default", "hull"}, ""},
		{"", nil, `-topos "": need at least one topology`},
		{",", nil, `-topos ",": need at least one topology`},
		{" , ", nil, `-topos " , ": need at least one topology`},
	}
	for _, c := range cases {
		got, err := TopoNames(c.csv)
		checkErr(t, err, c.wantErr)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("TopoNames(%q) = %q, want %q", c.csv, got, c.want)
		}
	}
}

func TestParseFlowCounts(t *testing.T) {
	cases := []struct {
		csv     string
		want    []int
		wantErr string
	}{
		{"10,20,40", []int{10, 20, 40}, ""},
		{" 1 , 2 ", []int{1, 2}, ""},
		{"200", []int{200}, ""},
		{"", nil, `bad flow count ""`},
		{"10,,20", nil, `bad flow count ""`},
		{"0", nil, `bad flow count "0"`},
		{"-3", nil, `bad flow count "-3"`},
		{"ten", nil, `bad flow count "ten"`},
		{"40,zero", nil, `bad flow count "zero"`},
	}
	for _, c := range cases {
		got, err := ParseFlowCounts(c.csv)
		checkErr(t, err, c.wantErr)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseFlowCounts(%q) = %v, want %v", c.csv, got, c.want)
		}
	}
}

func TestParseSeeds(t *testing.T) {
	cases := []struct {
		csv     string
		want    []uint64
		wantErr string
	}{
		{"1,2,3", []uint64{1, 2, 3}, ""},
		{" 0 ", []uint64{0}, ""},
		{"minus-one", nil, `bad seed "minus-one"`},
		{"-1", nil, `bad seed "-1"`},
		{"1,,2", nil, `bad seed ""`},
	}
	for _, c := range cases {
		got, err := ParseSeeds(c.csv)
		checkErr(t, err, c.wantErr)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseSeeds(%q) = %v, want %v", c.csv, got, c.want)
		}
	}
}

func TestParseDurations(t *testing.T) {
	cases := []struct {
		csv     string
		want    []sim.Duration
		wantErr string
	}{
		{"200ms,10ms", []sim.Duration{200 * sim.Millisecond, 10 * sim.Millisecond}, ""},
		{"200", nil, `bad duration "200"`}, // missing unit
		{"-5ms", nil, `bad duration "-5ms"`},
		{"0s", nil, `bad duration "0s"`},
	}
	for _, c := range cases {
		got, err := ParseDurations(c.csv)
		checkErr(t, err, c.wantErr)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseDurations(%q) = %v, want %v", c.csv, got, c.want)
		}
	}
}

// FuzzParseLists: no flag value panics a list parser; an accepted list,
// printed back and re-joined with ",", parses to the same values; flow
// counts and durations are positive; and SplitCSV's fields are non-empty,
// trimmed, comma-free and split back to themselves.
func FuzzParseLists(f *testing.F) {
	for _, seed := range []string{"", ",", " , ", "10,20,40", " 1 , 2 ", "10,,20", "0", "-3", "+7",
		"200ms,10ms", "1h2m3.5s", "-5ms", "0s", "9223372036854775807", "18446744073709551616",
		"tcp,,reno+,", "\x00", "\xff\xfe,1"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if ns, err := ParseFlowCounts(s); err == nil {
			strs := make([]string, len(ns))
			for i, n := range ns {
				if n <= 0 {
					t.Fatalf("ParseFlowCounts(%q) accepted %d", s, n)
				}
				strs[i] = strconv.Itoa(n)
			}
			if again, err := ParseFlowCounts(strings.Join(strs, ",")); err != nil || !reflect.DeepEqual(again, ns) {
				t.Errorf("ParseFlowCounts(%q) = %v, re-parses to %v, %v", s, ns, again, err)
			}
		}
		if seeds, err := ParseSeeds(s); err == nil {
			strs := make([]string, len(seeds))
			for i, n := range seeds {
				strs[i] = strconv.FormatUint(n, 10)
			}
			if again, err := ParseSeeds(strings.Join(strs, ",")); err != nil || !reflect.DeepEqual(again, seeds) {
				t.Errorf("ParseSeeds(%q) = %v, re-parses to %v, %v", s, seeds, again, err)
			}
		}
		if ds, err := ParseDurations(s); err == nil {
			strs := make([]string, len(ds))
			for i, d := range ds {
				if d <= 0 {
					t.Fatalf("ParseDurations(%q) accepted %v", s, d)
				}
				strs[i] = time.Duration(d).String()
			}
			if again, err := ParseDurations(strings.Join(strs, ",")); err != nil || !reflect.DeepEqual(again, ds) {
				t.Errorf("ParseDurations(%q) = %v, re-parses to %v, %v", s, ds, again, err)
			}
		}
		fields := SplitCSV(s)
		for _, fld := range fields {
			if fld == "" || fld != strings.TrimSpace(fld) || strings.Contains(fld, ",") {
				t.Fatalf("SplitCSV(%q) yields field %q", s, fld)
			}
		}
		if again := SplitCSV(strings.Join(fields, ",")); !reflect.DeepEqual(again, fields) {
			t.Errorf("SplitCSV(%q) = %q, re-splits to %q", s, fields, again)
		}
	})
}

func TestWriteTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("cli.test").Add(3)
	path := filepath.Join(t.TempDir(), "tel.json")
	if err := WriteTelemetry(reg, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Header line plus one line per instrument.
	if lines := strings.Count(string(data), "\n"); lines != 2 || !strings.Contains(string(data), "cli.test") {
		t.Errorf("dump malformed (%d lines):\n%s", lines, data)
	}
	if err := WriteTelemetry(reg, filepath.Join(t.TempDir(), "no", "such", "tel.json")); err == nil {
		t.Error("WriteTelemetry into a missing directory succeeded")
	}
}

// TestProfiles: Start and its stop write both profiles, each non-empty; a
// pair with neither path set writes nothing, and Validate names the flag of
// a path without a parent directory.
func TestProfiles(t *testing.T) {
	dir := t.TempDir()
	p := &Profiles{CPU: filepath.Join(dir, "cpu.pprof"), Mem: filepath.Join(dir, "mem.pprof")}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{p.CPU, p.Mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", path, err)
		}
	}

	none, err := (&Profiles{}).Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := none(); err != nil {
		t.Errorf("stop with no profiles asked for: %v", err)
	}

	missing := filepath.Join(dir, "no", "such", "p.pprof")
	for _, c := range []struct {
		flag string
		p    Profiles
	}{{"-cpuprofile", Profiles{CPU: missing}}, {"-memprofile", Profiles{Mem: missing}}} {
		if err := c.p.Validate(); err == nil || !strings.Contains(err.Error(), c.flag+" "+missing) {
			t.Errorf("Validate(%+v) = %v, want an error naming %s", c.p, err, c.flag)
		}
	}
}

// TestExitStatus pins the exit contract every command shares — 2 for a bad
// command line, 1 for a failed run or an oracle violation, one "tool: err"
// line on stderr — by re-running this test binary with the exiting call
// named as a positional argument.
func TestExitStatus(t *testing.T) {
	if mode := flag.Arg(0); mode != "" {
		switch mode {
		case "usage":
			Usage("tool", errors.New("-rounds 0: need at least one round"))
		case "fatal":
			Fatal("tool", errors.New("cache unreadable"))
		case "oracle":
			FailOracle("tool", 2, []string{"violation one", "violation two"}, flag.Arg(1))
		}
		Usage("tool", nil)
		Fatal("tool", nil)
		return // a nil error must not exit
	}
	trace := filepath.Join(t.TempDir(), "viol.txt")
	cases := []struct {
		mode       string
		wantStatus int
		wantStderr string
	}{
		{"usage", 2, "tool: -rounds 0: need at least one round\n"},
		{"fatal", 1, "tool: cache unreadable\n"},
		{"oracle", 1, "violation one\nviolation two\ntool: oracle trace -> " + trace + "\ntool: 2 oracle violations\n"},
		{"none", 0, ""},
	}
	for _, c := range cases {
		cmd := exec.Command(os.Args[0], "-test.run=^TestExitStatus$", c.mode, trace)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		status := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			status = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if status != c.wantStatus || stderr.String() != c.wantStderr {
			t.Errorf("%s: exit %d, stderr %q; want exit %d, stderr %q",
				c.mode, status, stderr.String(), c.wantStatus, c.wantStderr)
		}
	}
	if data, err := os.ReadFile(trace); err != nil || string(data) != "violation one\nviolation two\n" {
		t.Errorf("oracle trace = %q, %v", data, err)
	}
}
