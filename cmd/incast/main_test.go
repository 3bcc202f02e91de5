package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	dcp "dctcpplus"
)

// The cases below drive the usage gate through the real flag variables, the
// way main does; each test restores the flags it touched. The helpers'
// own tables live in internal/cli.

func TestValidateFlags(t *testing.T) {
	defer func(r, w int, tot, p int64, rto string, jit time.Duration, pr string, fs uint64) {
		*rounds, *warmup, *total, *per, *rtomin, *jitter, *protocols, *faultSeed = r, w, tot, p, rto, jit, pr, fs
	}(*rounds, *warmup, *total, *per, *rtomin, *jitter, *protocols, *faultSeed)
	const (
		rto = "200ms"
		jit = 4 * time.Millisecond
		pr  = "dctcp+,dctcp"
	)
	// "zero rounds", "zero byte budget" and "zero faultseed" are values the
	// spec reads as "unset": without the gate they would silently run 50
	// rounds, 1 MB and fault seed 1.
	cases := []struct {
		name           string
		rounds, warmup int
		total, perflow int64
		rtoMin         string
		jitter         time.Duration
		protocols      string
		faultSeed      uint64
		wantErr        bool
	}{
		{"defaults", 50, 10, 1 << 20, 0, rto, jit, pr, 1, false},
		{"perflow overrides total", 50, 10, 0, 64 << 10, rto, jit, pr, 1, false},
		{"zero warmup", 1, 0, 1 << 20, 0, rto, jit, pr, 1, false},
		{"zero jitter", 50, 10, 1 << 20, 0, rto, 0, pr, 1, true},
		{"zero rounds", 0, 0, 1 << 20, 0, rto, jit, pr, 1, true},
		{"negative rounds", -5, 0, 1 << 20, 0, rto, jit, pr, 1, true},
		{"negative warmup", 50, -1, 1 << 20, 0, rto, jit, pr, 1, true},
		{"warmup swallows rounds", 10, 10, 1 << 20, 0, rto, jit, pr, 1, true},
		{"zero byte budget", 50, 10, 0, 0, rto, jit, pr, 1, true},
		{"negative total", 50, 10, -1, 0, rto, jit, pr, 1, true},
		{"negative perflow", 50, 10, 1 << 20, -4096, rto, jit, pr, 1, true},
		{"zero rtomin", 50, 10, 1 << 20, 0, "0ms", jit, pr, 1, true},
		{"negative jitter", 50, 10, 1 << 20, 0, rto, -time.Millisecond, pr, 1, true},
		{"empty protocols", 50, 10, 1 << 20, 0, rto, jit, "", 1, true},
		{"blank protocols", 50, 10, 1 << 20, 0, rto, jit, " , ", 1, true},
		{"zero faultseed", 50, 10, 1 << 20, 0, rto, jit, pr, 0, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			*rounds, *warmup, *total, *per, *rtomin, *jitter, *protocols, *faultSeed =
				c.rounds, c.warmup, c.total, c.perflow, c.rtoMin, c.jitter, c.protocols, c.faultSeed
			if _, err := validate(); (err != nil) != c.wantErr {
				t.Errorf("validate = %v, wantErr=%v", err, c.wantErr)
			}
		})
	}
}

func TestValidateSweepFlags(t *testing.T) {
	defer func(j int, d string, r bool) { *jobs, *cacheDir, *resume = j, d, r }(*jobs, *cacheDir, *resume)
	parent := t.TempDir()
	cases := []struct {
		name     string
		jobs     int
		cacheDir string
		resume   bool
		wantErr  bool
	}{
		{"defaults, no cache", 4, "", false, false},
		{"single worker", 1, "", false, false},
		{"cache under existing parent", 2, parent + "/cache", false, false},
		{"resume with cache", 2, parent + "/cache", true, false},
		{"zero jobs", 0, "", false, true},
		{"negative jobs", -3, "", false, true},
		{"nonexistent cache parent", 2, parent + "/no/such/cache", false, true},
		{"resume without cache", 2, "", true, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			*jobs, *cacheDir, *resume = c.jobs, c.cacheDir, c.resume
			if _, err := validate(); (err != nil) != c.wantErr {
				t.Errorf("validate(-jobs %d -cache-dir %q -resume=%v) = %v, wantErr=%v",
					c.jobs, c.cacheDir, c.resume, err, c.wantErr)
			}
		})
	}
}

func TestValidateOracleFlags(t *testing.T) {
	defer func(o bool, tr string) { *oracle, *oracleTrace = o, tr }(*oracle, *oracleTrace)
	parent := t.TempDir()
	cases := []struct {
		name    string
		oracle  bool
		trace   string
		wantErr bool
	}{
		{"both off", false, "", false},
		{"oracle without trace", true, "", false},
		{"oracle with trace", true, parent + "/viol.txt", false},
		{"trace without oracle", false, parent + "/viol.txt", true},
		{"nonexistent trace parent", true, parent + "/no/such/viol.txt", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			*oracle, *oracleTrace = c.oracle, c.trace
			if _, err := validate(); (err != nil) != c.wantErr {
				t.Errorf("validate(-oracle=%v -oracle-trace %q) = %v, wantErr=%v",
					c.oracle, c.trace, err, c.wantErr)
			}
		})
	}
}

// TestValidateOutputFlags: an output file under a missing directory is a
// usage error before the run, not a failure after it.
func TestValidateOutputFlags(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "out.json")
	cases := []struct {
		name string
		flag *string
	}{
		{"-telemetry", telOut},
		{"-cpuprofile", &prof.CPU},
		{"-memprofile", &prof.Mem},
		{"-trace", &prof.Trace},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func(v string) { *c.flag = v }(*c.flag)
			*c.flag = missing
			if _, err := validate(); err == nil || !strings.Contains(err.Error(), c.name+" "+missing) {
				t.Errorf("validate(%s %s) = %v, want a usage error naming the flag", c.name, missing, err)
			}
		})
	}
}

func TestBuildSpec(t *testing.T) {
	spec, err := buildSpec("t", "dctcp+,dctcp", "40,80", "200ms,10ms", "1,2,3",
		"default,hull", "none;all;loss,delay", 7, 50, 10, 1<<20, 0, 4*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Protocols) != 2 || len(spec.Flows) != 2 || len(spec.RTOMins) != 2 ||
		len(spec.Seeds) != 3 || len(spec.Topos) != 2 || len(spec.Faults) != 3 {
		t.Fatalf("spec dimensions wrong: %+v", spec)
	}
	if spec.Faults[0] != "" || spec.Faults[1] != "all" || spec.Faults[2] != "loss,delay" {
		t.Fatalf("fault plans wrong: %v", spec.Faults)
	}
	if spec.RTOMins[1] != 10*dcp.Millisecond {
		t.Fatalf("rtomin parse wrong: %v", spec.RTOMins)
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("built spec does not validate: %v", err)
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2*2*2*3*2*3 {
		t.Fatalf("expanded %d jobs, want 144", len(jobs))
	}

	bad := []struct{ name, protocols, flows, rtomin, seeds, topos string }{
		{"t", "dctcp", "40,zero", "200ms", "1", "default"},
		{"t", "dctcp", "40", "200", "1", "default"}, // missing unit
		{"t", "dctcp", "40", "-5ms", "1", "default"},
		{"t", "dctcp", "40", "0ms", "1", "default"}, // tcp.Config panics on a zero RTO floor
		{"t", "dctcp", "40", "200ms", "minus-one", "default"},
		{"t", "", "40", "200ms", "1", "default"},         // would silently run the default protocol
		{"t", "dctcp", "40", "200ms", "1", ""},           // would silently run the default topology
		{"t", "dctcp", "40", "200ms", "1", ","},          // likewise
		{"../t", "dctcp", "40", "200ms", "1", "default"}, // manifest would land beside the cache
	}
	for _, b := range bad {
		if _, err := buildSpec(b.name, b.protocols, b.flows, b.rtomin, b.seeds,
			b.topos, "none", 1, 50, 10, 1<<20, 0, time.Millisecond); err == nil {
			t.Errorf("buildSpec accepted name=%q protocols=%q flows=%q rtomin=%q seeds=%q topos=%q",
				b.name, b.protocols, b.flows, b.rtomin, b.seeds, b.topos)
		}
	}
}

// TestInterruptLeavesResumableJournal sends the built command SIGINT after
// its first progress line: the running point finishes, the rest are
// skipped, the command exits 1 naming both counts, and the journal lists
// what completed — exactly the points a -resume rerun then finds cached.
func TestInterruptLeavesResumableJournal(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("os.Interrupt cannot be sent to a process on windows")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "incast")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building incast: %v\n%s", err, out)
	}
	// 2 protocols × 2 flow counts × 50 seeds: 200 points of a few ms each,
	// with a progress line every 10.
	seedList := make([]string, 50)
	for i := range seedList {
		seedList[i] = strconv.Itoa(i + 1)
	}
	args := []string{"-name", "sigint", "-protocols", "dctcp+,dctcp", "-flows", "20,40",
		"-seeds", strings.Join(seedList, ","), "-rounds", "6", "-warmup", "2", "-rtomin", "10ms",
		"-jobs", "1", "-cache-dir", filepath.Join(dir, "cache")}

	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := bufio.NewScanner(stderr)
	if !lines.Scan() {
		cmd.Process.Kill()
		t.Fatalf("no progress line before exit: %v", cmd.Wait())
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	var last string
	for lines.Scan() {
		last = lines.Text()
	}
	if err := cmd.Wait(); cmd.ProcessState.ExitCode() != 1 {
		t.Fatalf("interrupted run: %v, want exit 1; last stderr line %q", err, last)
	}
	var completed, jobs, skipped int
	if _, err := fmt.Sscanf(last, "incast: interrupted: %d of %d jobs completed, %d skipped",
		&completed, &jobs, &skipped); err != nil || jobs != 200 || completed+skipped != jobs || skipped == 0 {
		t.Fatalf("interrupted run's last line %q does not name its completed and skipped points", last)
	}

	data, err := os.ReadFile(filepath.Join(dir, "cache", "sigint.manifest.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	journal := strings.Split(strings.TrimSpace(string(data)), "\n")
	if !strings.Contains(journal[0], `"sweep":"sigint"`) || len(journal)-1 != completed || completed < 1 {
		t.Fatalf("journal has %d lines starting %q, want the header and %d entries", len(journal), journal[0], completed)
	}

	out, err := exec.Command(bin, append(args, "-resume", "-q")...).Output()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if want := fmt.Sprintf("%d jobs: %d run, %d cached", jobs, skipped, completed); !strings.Contains(string(out), want) {
		t.Fatalf("resumed run does not report %q:\n%s", want, out)
	}
}

// TestCacheScopedToBuild runs one grid on one cache directory with two
// builds of the command that differ only in DCTCP's window cut — (1 − α)
// instead of (1 − α/2), swapped in with go build -overlay. The second
// build must compute every point itself: a cached result belongs to the
// executable that produced it, not to the commit its tree started from.
func TestCacheScopedToBuild(t *testing.T) {
	dir := t.TempDir()
	build := func(name string, extra ...string) string {
		bin := filepath.Join(dir, name)
		args := append(append([]string{"build"}, extra...), "-o", bin, ".")
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
		return bin
	}
	orig := build("incast")

	src, err := filepath.Abs(filepath.Join("..", "..", "internal", "dctcp", "dctcp.go"))
	if err != nil {
		t.Fatal(err)
	}
	code, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(code), "d.alpha/2"); n != 1 {
		t.Fatalf("dctcp.go has %d copies of the cut's d.alpha/2, want 1", n)
	}
	mutated := filepath.Join(dir, "dctcp.go")
	if err := os.WriteFile(mutated, []byte(strings.Replace(string(code), "d.alpha/2", "d.alpha", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	replace, err := json.Marshal(map[string]map[string]string{"Replace": {src: mutated}})
	if err != nil {
		t.Fatal(err)
	}
	overlay := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(overlay, replace, 0o644); err != nil {
		t.Fatal(err)
	}
	cut := build("incast-cut", "-overlay", overlay)

	args := []string{"-q", "-name", "twobuild", "-protocols", "dctcp", "-flows", "40,80",
		"-rounds", "6", "-warmup", "2", "-cache-dir", filepath.Join(dir, "cache")}
	run := func(bin string, extra ...string) string {
		out, err := exec.Command(bin, append(args, extra...)...).Output()
		if err != nil {
			t.Fatalf("%s: %v\n%s", filepath.Base(bin), err, out)
		}
		return string(out)
	}
	first := run(orig)
	again := run(orig, "-resume")
	other := run(cut, "-resume")
	for _, c := range []struct{ what, out, want string }{
		{"the first run", first, "2 jobs: 2 run, 0 cached"},
		{"the same build, resumed", again, "2 jobs: 0 run, 2 cached"},
		{"the (1 − α) build, resumed", other, "2 jobs: 2 run, 0 cached"},
	} {
		if !strings.Contains(c.out, c.want) {
			t.Fatalf("%s does not report %q:\n%s", c.what, c.want, c.out)
		}
	}
	table := func(out string) string { tbl, _, _ := strings.Cut(out, "\n\n"); return tbl }
	if table(first) == table(other) {
		t.Fatal("the two builds print the same table: the overlay did not change the cut")
	}
}
