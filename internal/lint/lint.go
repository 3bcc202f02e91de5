// Package lint is the repository's stdlib-only static analysis pass
// (go/parser, go/ast, go/token, go/types — the module is dependency-free
// and must stay that way). internal/lint's TestModuleIsClean runs it over
// the whole module on every `go test ./...`. An analyzer ships only for a
// bug class that no test catches; DESIGN.md's evidence ledger records the
// findings and mutants behind each verdict. One analyzer makes up the
// pass:
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
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding: a position, the analyzer that produced it and
// a human-readable message.
type Diagnostic struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named rule set run over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Run inspects one package and returns its findings.
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

// Run executes the analyzers over the packages and returns their
// diagnostics sorted by file, line, column and analyzer.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, p := range pkgs {
		for _, a := range analyzers {
			out = append(out, a.Run(p)...)
		}
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
