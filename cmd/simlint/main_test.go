package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"dctcpplus/internal/lint"
)

// moduleRoot walks up from the test's working directory (cmd/simlint) to
// the repository root so the table below can address fixture packages.
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestRunExitContract pins the documented 0/1/2 exit statuses and the shape
// of both output modes against real fixture packages.
func TestRunExitContract(t *testing.T) {
	root := moduleRoot(t)
	// A throwaway module whose one package carries a well-formed
	// //lint:allow that suppresses nothing.
	stale := filepath.Join(root, "internal", "lint", "testdata", "stalemod")
	cases := []struct {
		name       string
		args       []string
		wantStatus int
		wantOut    []string // substrings of stdout
		wantErr    string   // substring of stderr, "" to skip
	}{
		{
			name:       "clean package exits 0",
			args:       []string{"-C", root, "./internal/check"},
			wantStatus: 0,
		},
		{
			name:       "violating fixture exits 1 in text mode",
			args:       []string{"-C", root, "internal/lint/testdata/src/floatcmp"},
			wantStatus: 1,
			wantOut:    []string{"floateq: floating-point == comparison"},
			wantErr:    "diagnostic(s)",
		},
		{
			name:       "type error exits 2",
			args:       []string{"-C", root, "internal/lint/testdata/broken"},
			wantStatus: 2,
			wantErr:    "broken.go",
		},
		{
			name:       "unknown flag exits 2",
			args:       []string{"-no-such-flag"},
			wantStatus: 2,
			wantErr:    "flag provided but not defined",
		},
		{
			name:       "unresolvable pattern exits 2",
			args:       []string{"-C", root, "internal/lint/no/such/dir"},
			wantStatus: 2,
			wantErr:    "simlint:",
		},
		{
			name:       "list exits 0 and names the suite",
			args:       []string{"-list"},
			wantStatus: 0,
			wantOut:    []string{"floateq"},
		},
		{
			name:       "stale directive is reported when only its package is linted",
			args:       []string{"-C", stale, "./a"},
			wantStatus: 1,
			wantOut:    []string{"staleallow: stale //lint:allow floateq directive"},
			wantErr:    "diagnostic(s)",
		},
		{
			name:       "whole-module run reports the rotted directive and exits 1",
			args:       []string{"-C", stale},
			wantStatus: 1,
			wantOut:    []string{"staleallow: stale //lint:allow floateq directive"},
			wantErr:    "diagnostic(s)",
		},
		{
			name:       "allow directive naming a retired or unknown analyzer exits 1 on a partial load",
			args:       []string{"-C", root, "internal/lint/testdata/src/directive"},
			wantStatus: 1,
			wantOut:    []string{`directive: //lint:allow names unknown analyzer "nosuchanalyzer"`},
		},
		{
			name:       "removed -fix exits 2",
			args:       []string{"-fix", "-C", root, "./internal/check"},
			wantStatus: 2,
			wantErr:    "flag provided but not defined",
		},
		{
			name:       "removed -changed exits 2",
			args:       []string{"-changed", "HEAD", "-C", root, "./internal/check"},
			wantStatus: 2,
			wantErr:    "flag provided but not defined",
		},
		{
			name:       "removed -stale-allow exits 2",
			args:       []string{"-stale-allow", "-C", root, "./internal/check"},
			wantStatus: 2,
			wantErr:    "flag provided but not defined",
		},
		{
			name:       "removed -sarif exits 2",
			args:       []string{"-sarif", "-C", root, "./internal/check"},
			wantStatus: 2,
			wantErr:    "flag provided but not defined",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errb strings.Builder
			status := run(c.args, &out, &errb)
			if status != c.wantStatus {
				t.Fatalf("run(%v) = %d, want %d\nstdout: %s\nstderr: %s",
					c.args, status, c.wantStatus, out.String(), errb.String())
			}
			for _, w := range c.wantOut {
				if !strings.Contains(out.String(), w) {
					t.Errorf("stdout missing %q:\n%s", w, out.String())
				}
			}
			if c.wantErr != "" && !strings.Contains(errb.String(), c.wantErr) {
				t.Errorf("stderr missing %q:\n%s", c.wantErr, errb.String())
			}
		})
	}
}

// TestRunJSONMode checks both halves of the JSON contract: a clean run
// prints exactly the empty array, and a dirty run prints a parseable array
// of diagnostics with module-relative paths — while still exiting 1.
func TestRunJSONMode(t *testing.T) {
	root := moduleRoot(t)

	var out, errb strings.Builder
	if status := run([]string{"-C", root, "-json", "./internal/check"}, &out, &errb); status != 0 {
		t.Fatalf("clean JSON run exited %d; stderr: %s", status, errb.String())
	}
	var diags []lint.Diagnostic
	if err := json.Unmarshal([]byte(out.String()), &diags); err != nil {
		t.Fatalf("clean output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(diags) != 0 {
		t.Fatalf("clean run produced %d diagnostics: %+v", len(diags), diags)
	}

	out.Reset()
	errb.Reset()
	if status := run([]string{"-C", root, "-json", "internal/lint/testdata/src/floatcmp"}, &out, &errb); status != 1 {
		t.Fatalf("dirty JSON run exited %d, want 1; stderr: %s", status, errb.String())
	}
	diags = nil
	if err := json.Unmarshal([]byte(out.String()), &diags); err != nil {
		t.Fatalf("dirty output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(diags) != 2 {
		t.Fatalf("dirty run produced %d diagnostics, want 2: %+v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != "floateq" {
			t.Errorf("unexpected analyzer %q in %+v", d.Analyzer, d)
		}
		if filepath.IsAbs(d.File) {
			t.Errorf("path %q is absolute, want module-relative", d.File)
		}
		if d.Line == 0 || d.Col == 0 || d.Message == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
	}
}
