// Package lint implements simlint, the repository's domain-specific static
// analysis pass, using nothing but the standard library (go/parser, go/ast,
// go/token, go/types — the module is dependency-free and must stay that
// way). An analyzer ships only for a bug class that no test catches;
// DESIGN.md's evidence ledger records the findings and mutants behind each
// verdict. One analyzer makes up the pass:
//
//   - floateq: ==/!= on floating-point operands outside tests.
//
// Determinism, worker-race freedom, unit consistency and state-machine
// coverage are checked by the test suite instead: byte-identity tests and
// goldens pin every seeded run, TestWorkerCountInvariance and -race pin the
// sweep workers, the oracle's conservation ledger and the marking tests pin
// bytes against packets, and the transition and String tests pin every arm
// of the DCTCP+, sender and ECN state switches. The per-packet path is
// checked at run time too: internal/exp's TestRigJobAllocBudget fails on an
// allocation per packet or on slice growth between repeated warm-rig runs,
// and TestOracleByteLedgerPastInt32 carries the byte counters past the int32
// range under the oracle's conservation ledger. Ownership of simulation
// objects is checked at run time, in every build: sim.Timer panics if it
// holds an event it no longer owns (the scheduler hands out no other
// cancellable handle), packet.Pool's double-free poison and the oracle's
// pool ledger guard packets.
//
// Intentional exceptions are declared inline with a directive comment on
// the offending line (or the line above):
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory: an allowlist entry is documentation, and a bare
// directive — or one naming an analyzer outside the suite — is itself
// reported as a diagnostic, and so is a directive that no longer suppresses
// anything (see Run).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the analyzer that produced it and
// a human-readable message.
type Diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named rule set run over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
	Name string
	// Doc is a one-line description (cmd/simlint -help lists it).
	Doc string
	// Run inspects one package and returns its raw findings; the runner
	// applies allow directives afterwards.
	Run func(p *Package) []Diagnostic
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		FloatEq(),
	}
}

// diag constructs a Diagnostic at pos.
func (p *Package) diag(name string, pos token.Pos, format string, args ...any) Diagnostic {
	position := p.Fset.Position(pos)
	return Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: name,
		Message:  fmt.Sprintf(format, args...),
	}
}

// directive is one parsed //lint:allow comment.
type directive struct {
	analyzers map[string]bool
	reason    string
	line      int // the source line the directive appears on
}

// parseDirectives extracts //lint:allow comments from a file: line
// comments that start with "//lint:allow", with no space after the slashes
// ("// lint:allow" is prose, not a directive). A directive suppresses
// matching diagnostics on its own line and, when it stands alone on a line,
// on the line directly below — the same placement rules as //nolint in
// common linters.
func parseDirectives(fset *token.FileSet, f *ast.File) []directive {
	var out []directive
	for _, g := range f.Comments {
		for _, c := range g.List {
			payload, ok := strings.CutPrefix(c.Text, "//lint:allow")
			if !ok {
				continue
			}
			payload = strings.TrimSpace(payload)
			d := directive{analyzers: make(map[string]bool), line: fset.Position(c.Pos()).Line}
			if fields := strings.Fields(payload); len(fields) > 0 {
				for _, name := range strings.Split(fields[0], ",") {
					d.analyzers[name] = true
				}
				d.reason = strings.TrimSpace(strings.TrimPrefix(payload, fields[0]))
			}
			out = append(out, d)
		}
	}
	return out
}

// applyDirectives filters diags through the package's allow directives and
// appends a diagnostic for every malformed (reason-less) directive — the
// allowlist policy requires each exception to say why it exists — and for
// every name outside known, the suite's analyzer names, which could never
// suppress anything. It also reports every well-formed directive that
// suppressed nothing as a "staleallow" finding — a justified exemption that
// has outlived the diagnostic it justified is rot, not documentation.
func applyDirectives(p *Package, diags []Diagnostic, known map[string]bool) []Diagnostic {
	type key struct {
		file string
		line int
	}
	type allowEntry struct {
		d    directive
		file string
		used bool
	}
	var entries []*allowEntry
	allowed := make(map[key][]*allowEntry)
	var out []Diagnostic
	for _, f := range p.Files {
		file := p.Fset.Position(f.Pos()).Filename
		for _, d := range parseDirectives(p.Fset, f) {
			bad := func(format string, args ...any) {
				out = append(out, Diagnostic{File: file, Line: d.line, Col: 1, Analyzer: "directive", Message: fmt.Sprintf(format, args...)})
			}
			if len(d.analyzers) == 0 || d.reason == "" {
				bad("malformed //lint:allow directive: want \"//lint:allow <analyzer> <reason>\"")
				continue
			}
			for _, name := range sortedNames(d.analyzers) {
				if !known[name] {
					bad("//lint:allow names unknown analyzer %q (simlint -list prints the suite)", name)
					delete(d.analyzers, name)
				}
			}
			if len(d.analyzers) == 0 {
				continue
			}
			e := &allowEntry{d: d, file: file}
			entries = append(entries, e)
			// Cover the directive's own line and the next one, so both
			// trailing and standalone placements work.
			allowed[key{file, d.line}] = append(allowed[key{file, d.line}], e)
			allowed[key{file, d.line + 1}] = append(allowed[key{file, d.line + 1}], e)
		}
	}
	for _, dg := range diags {
		suppressed := false
		// Mark every covering directive used, not just the first match: a
		// directive is stale only if no diagnostic at all lands on it.
		for _, e := range allowed[key{dg.File, dg.Line}] {
			if e.d.analyzers[dg.Analyzer] {
				suppressed = true
				e.used = true
			}
		}
		if !suppressed {
			out = append(out, dg)
		}
	}
	for _, e := range entries {
		if e.used {
			continue
		}
		out = append(out, Diagnostic{
			File:     e.file,
			Line:     e.d.line,
			Col:      1,
			Analyzer: "staleallow",
			Message: fmt.Sprintf("stale //lint:allow %s directive: it suppresses no diagnostic on this or the next line; delete it (or move it back beside the finding it justifies)",
				strings.Join(sortedNames(e.d.analyzers), ",")),
		})
	}
	return out
}

func sortedNames(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Run executes the analyzers over the packages and returns the surviving
// diagnostics sorted by file, line, column and analyzer.
//
// Run also audits the allowlist: every well-formed //lint:allow that
// suppresses no diagnostic is itself reported (analyzer "staleallow"), so
// exemptions cannot rot in place. Every analyzer reads one package at a
// time, so a finding and the directive that excuses it live in the same
// package, and the audit is sound on any load.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	// A directive may name any analyzer of the suite, not just the ones
	// this run was handed.
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, p := range pkgs {
		var raw []Diagnostic
		for _, a := range analyzers {
			raw = append(raw, a.Run(p)...)
		}
		out = append(out, applyDirectives(p, raw, known)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}

// isFloat reports whether e has floating-point type.
func (p *Package) isFloat(e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
