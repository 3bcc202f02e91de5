// Package sweep holds no command: the sweep grid command was folded into
// cmd/incast, which takes every one of its flags. These tests build
// cmd/incast and drive it with the sweep command lines they used to check,
// pinning that each is still accepted, or refused as a usage error (exit 2)
// before any point runs.
package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var incastBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "incast-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	incastBin = filepath.Join(dir, "incast")
	if out, err := exec.Command("go", "build", "-o", incastBin, "dctcpplus/cmd/incast").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building cmd/incast: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tiny is a one-point grid that finishes in milliseconds, so an accepted
// command line costs next to nothing to run to the end.
var tiny = []string{"-protocols", "dctcp", "-flows", "2", "-rounds", "2", "-warmup", "1", "-q"}

// incast runs the built command on tiny followed by args and returns its
// exit status and standard error.
func incast(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, incastBin, append(append([]string{}, tiny...), args...)...)
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("running incast %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// checkExit runs incast on args and wants exit 2 when wantErr, else 0.
func checkExit(t *testing.T, wantErr bool, args ...string) {
	t.Helper()
	want := 0
	if wantErr {
		want = 2
	}
	if code, stderr := incast(t, args...); code != want {
		t.Errorf("incast %s: exit %d, want %d\n%s", strings.Join(args, " "), code, want, stderr)
	}
}

func TestValidateSweepFlags(t *testing.T) {
	cases := []struct {
		name     string
		jobs     int
		cacheDir string // under a fresh temporary parent; empty disables the cache
		resume   bool
		wantErr  bool
	}{
		{"defaults, no cache", 4, "", false, false},
		{"single worker", 1, "", false, false},
		{"cache under existing parent", 2, "cache", false, false},
		{"resume with cache", 2, "cache", true, false},
		{"zero jobs", 0, "", false, true},
		{"negative jobs", -3, "", false, true},
		{"nonexistent cache parent", 2, "no/such/cache", false, true},
		{"resume without cache", 2, "", true, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			args := []string{"-jobs", fmt.Sprint(c.jobs), fmt.Sprintf("-resume=%v", c.resume)}
			if c.cacheDir != "" {
				args = append(args, "-cache-dir", filepath.Join(t.TempDir(), c.cacheDir))
			}
			checkExit(t, c.wantErr, args...)
		})
	}
}

// TestValidateJitterFlag: -jitter 0 is refused rather than silently run at
// the spec's 4 ms default.
func TestValidateJitterFlag(t *testing.T) {
	cases := []struct {
		name    string
		jitter  string
		wantErr bool
	}{
		{"defaults", "4ms", false},
		{"zero jitter", "0s", true},
		{"negative jitter", "-1ms", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkExit(t, c.wantErr, "-jitter", c.jitter)
		})
	}
}

func TestValidateOracleFlags(t *testing.T) {
	cases := []struct {
		name    string
		oracle  bool
		trace   string // under a fresh temporary parent
		wantErr bool
	}{
		{"both off", false, "", false},
		{"oracle without trace", true, "", false},
		{"oracle with trace", true, "viol.txt", false},
		{"trace without oracle", false, "viol.txt", true},
		{"nonexistent trace parent", true, "no/such/viol.txt", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			args := []string{fmt.Sprintf("-oracle=%v", c.oracle)}
			if c.trace != "" {
				args = append(args, "-oracle-trace", filepath.Join(t.TempDir(), c.trace))
			}
			checkExit(t, c.wantErr, args...)
		})
	}
}

// TestValidateOutputFlags: an output file under a missing directory is a
// usage error before the run, not a failure after it.
func TestValidateOutputFlags(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "out.json")
	for _, flag := range []string{"-telemetry", "-cpuprofile", "-memprofile"} {
		t.Run(flag, func(t *testing.T) {
			code, stderr := incast(t, flag, missing)
			if code != 2 || !strings.Contains(stderr, flag+" "+missing) {
				t.Errorf("incast %s %s: exit %d, want 2 with a usage error naming the flag\n%s",
					flag, missing, code, stderr)
			}
		})
	}
}
