package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The cases below drive the usage gate through the real flag variables, the
// way main does; each test restores the flags it touched. The helpers'
// own tables live in internal/cli.

func TestValidateFlags(t *testing.T) {
	defer func(r, w int, tot, p int64, rto, jit time.Duration, pr string) {
		*rounds, *warmup, *total, *per, *rtoMin, *jitter, *protocols = r, w, tot, p, rto, jit, pr
	}(*rounds, *warmup, *total, *per, *rtoMin, *jitter, *protocols)
	const (
		rto = 200 * time.Millisecond
		jit = 4 * time.Millisecond
		pr  = "dctcp+,dctcp"
	)
	cases := []struct {
		name           string
		rounds, warmup int
		total, perflow int64
		rtoMin, jitter time.Duration
		protocols      string
		wantErr        bool
	}{
		{"defaults", 50, 10, 1 << 20, 0, rto, jit, pr, false},
		{"perflow overrides total", 50, 10, 0, 64 << 10, rto, jit, pr, false},
		{"zero warmup", 1, 0, 1 << 20, 0, rto, jit, pr, false},
		{"zero jitter", 50, 10, 1 << 20, 0, rto, 0, pr, true},
		{"zero rounds", 0, 0, 1 << 20, 0, rto, jit, pr, true},
		{"negative rounds", -5, 0, 1 << 20, 0, rto, jit, pr, true},
		{"negative warmup", 50, -1, 1 << 20, 0, rto, jit, pr, true},
		{"warmup swallows rounds", 10, 10, 1 << 20, 0, rto, jit, pr, true},
		{"zero byte budget", 50, 10, 0, 0, rto, jit, pr, true},
		{"negative total", 50, 10, -1, 0, rto, jit, pr, true},
		{"negative perflow", 50, 10, 1 << 20, -4096, rto, jit, pr, true},
		{"zero rtomin", 50, 10, 1 << 20, 0, 0, jit, pr, true},
		{"negative jitter", 50, 10, 1 << 20, 0, rto, -time.Millisecond, pr, true},
		{"empty protocols", 50, 10, 1 << 20, 0, rto, jit, "", true},
		{"blank protocols", 50, 10, 1 << 20, 0, rto, jit, " , ", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			*rounds, *warmup, *total, *per, *rtoMin, *jitter, *protocols =
				c.rounds, c.warmup, c.total, c.perflow, c.rtoMin, c.jitter, c.protocols
			if err := validate(); (err != nil) != c.wantErr {
				t.Errorf("validate = %v, wantErr=%v", err, c.wantErr)
			}
		})
	}
}

func TestParseFaultGen(t *testing.T) {
	cases := []struct {
		spec        string
		wantNil     bool
		wantClasses int
		wantErr     bool
	}{
		{"", true, 0, false},
		{"all", false, 6, false},
		{"blackout", false, 1, false},
		{"loss,stall", false, 2, false},
		{"blackout, rate ", false, 2, false},
		{"bogus", false, 0, true},
		{"loss,,stall", false, 0, true},
	}
	for _, c := range cases {
		gen, err := parseFaultGen(c.spec, 7)
		if (err != nil) != c.wantErr {
			t.Errorf("parseFaultGen(%q) err = %v, wantErr=%v", c.spec, err, c.wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if (gen == nil) != c.wantNil {
			t.Errorf("parseFaultGen(%q) nil = %v, want %v", c.spec, gen == nil, c.wantNil)
			continue
		}
		if gen == nil {
			continue
		}
		if gen.Seed != 7 {
			t.Errorf("parseFaultGen(%q) seed = %d, want 7", c.spec, gen.Seed)
		}
		if len(gen.Classes) != c.wantClasses {
			t.Errorf("parseFaultGen(%q) classes = %d, want %d", c.spec, len(gen.Classes), c.wantClasses)
		}
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
			if err := validate(); (err != nil) != c.wantErr {
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
			if err := validate(); (err != nil) != c.wantErr {
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
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func(v string) { *c.flag = v }(*c.flag)
			*c.flag = missing
			if err := validate(); err == nil || !strings.Contains(err.Error(), c.name+" "+missing) {
				t.Errorf("validate(%s %s) = %v, want a usage error naming the flag", c.name, missing, err)
			}
		})
	}
}
