// Command simlint runs the repository's domain-specific static analysis
// over the module: exact float comparison (see internal/lint).
//
//	simlint ./...            # lint the whole module (the make check gate)
//	simlint ./internal/tcp   # lint one package
//	simlint -json ./...      # machine-readable diagnostics, one JSON array
//	simlint -list            # print the analyzer suite and exit
//
// Every run adds the allowlist audit: every well-formed //lint:allow
// directive that suppressed no diagnostic is reported as a "staleallow"
// finding and counts toward the exit status, so justified exemptions are
// deleted when the code they excused goes away.
//
// Exit status is a contract, relied on by make check and CI:
//
//	0  every matched package type-checked and produced no diagnostics
//	1  the analysis ran and reported at least one diagnostic
//	2  the analysis could not run: unknown flag, unresolvable pattern, or
//	   a package that fails to type-check
//
// Text mode prints file:line:col: analyzer: message per finding, with a
// trailing count on stderr. JSON mode always prints exactly one array on
// stdout (empty when clean), so a consumer may parse unconditionally; load
// errors go to stderr and are signalled only by status 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"dctcpplus/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind a testable seam: parse args, load, lint,
// report, and return the exit status per the contract above.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut = fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
		list    = fs.Bool("list", false, "list the analyzer suite and exit")
		dir     = fs.String("C", "", "change to this directory before resolving patterns")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root := *dir
	if root == "" {
		cwd, err := os.Getwd()
		if err != nil {
			fmt.Fprintln(stderr, "simlint:", err)
			return 2
		}
		root = cwd
	}

	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "simlint:", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "simlint:", err)
		return 2
	}
	diags := lint.Run(pkgs, analyzers)

	// Report paths relative to the module root: stable across machines,
	// clickable from the repository checkout.
	for i := range diags {
		if rel, err := filepath.Rel(loader.ModuleRoot(), diags[i].File); err == nil {
			diags[i].File = rel
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, "simlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(stderr, "simlint: %d diagnostic(s)\n", len(diags))
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
