package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SimTime returns the analyzer enforcing sim-time discipline: in any
// package where the sim.Time/sim.Duration types are available (i.e. that
// imports internal/sim), exported API surface — function parameters,
// results, and exported struct fields — must not carry durations or
// instants as raw int64/float64. Raw numbers with a time-suggesting name
// crossing a package boundary are exactly how wall/virtual time and
// mismatched units leak between layers.
//
// Packages that do not import internal/sim (internal/stats is deliberately
// simulator-agnostic, operating on plain float64 samples) are out of
// scope. Serialization boundaries (JSON schema fields like a manifest's
// wall_ns) declare themselves with an inline //lint:allow directive.
func SimTime() *Analyzer {
	return &Analyzer{
		Name: "simtime",
		Doc:  "no raw int64/float64 durations on exported boundaries where sim time types exist",
		Run:  runSimTime,
	}
}

// timeSuffixes are the name endings that mark an identifier as carrying a
// duration or instant. Matching is case-insensitive on the whole final
// word, so counters like Timeouts (plural) do not match timeout.
var timeSuffixes = []string{
	"ns", "nanos", "us", "micros", "ms", "millis", "sec", "secs", "seconds",
	"duration", "delay", "interval", "timeout", "deadline", "rtt", "rto",
	"jitter", "elapsed", "time",
}

// timeNamed reports whether name's trailing word suggests a time quantity.
func timeNamed(name string) bool {
	lower := strings.ToLower(name)
	for _, suf := range timeSuffixes {
		if lower == suf {
			return true
		}
		if strings.HasSuffix(lower, suf) {
			// Require a word boundary before the suffix: "WallNs" and
			// "slow_time" match, "Bins" (suffix "ns"? no — 'i' is lower)
			// must not match via an accidental split.
			idx := len(lower) - len(suf)
			prev := name[idx-1]
			first := name[idx]
			// Word boundary: snake_case, CamelCase (Wall|Ns), or an
			// acronym run followed by a lowercase unit (FCT|ms).
			if prev == '_' || (first >= 'A' && first <= 'Z') ||
				(prev >= 'A' && prev <= 'Z' && idx >= 2 && name[idx-2] >= 'A' && name[idx-2] <= 'Z') {
				return true
			}
		}
	}
	return false
}

// rawNumeric reports whether t is a plain int64 or float64 (predeclared
// basic type, not a named wrapper like sim.Duration).
func rawNumeric(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && (b.Kind() == types.Int64 || b.Kind() == types.Float64)
}

func runSimTime(p *Package) []Diagnostic {
	if !p.importsSim() || p.ImportPath == simPkgPath {
		// The engine itself defines the time types and their numeric
		// conversions; everywhere else those conversions should stay
		// behind its API.
		return nil
	}
	var out []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				out = append(out, p.checkFuncTimes(d)...)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					out = append(out, p.checkStructTimes(ts.Name.Name, st)...)
				}
			}
		}
	}
	return out
}

// checkFuncTimes flags raw-numeric, time-named parameters and results of
// an exported function or method.
func (p *Package) checkFuncTimes(d *ast.FuncDecl) []Diagnostic {
	var out []Diagnostic
	if d.Type.Params != nil {
		for _, field := range d.Type.Params.List {
			t := p.Info.TypeOf(field.Type)
			if t == nil || !rawNumeric(t) {
				continue
			}
			for _, name := range field.Names {
				if timeNamed(name.Name) {
					out = append(out, p.diag("simtime", name.Pos(),
						"exported %s takes raw %s duration parameter %q: use sim.Duration/sim.Time",
						d.Name.Name, t, name.Name))
				}
			}
		}
	}
	if d.Type.Results != nil {
		for _, field := range d.Type.Results.List {
			t := p.Info.TypeOf(field.Type)
			if t == nil || !rawNumeric(t) {
				continue
			}
			named := false
			for _, name := range field.Names {
				named = true
				if timeNamed(name.Name) {
					out = append(out, p.diag("simtime", name.Pos(),
						"exported %s returns raw %s duration %q: use sim.Duration/sim.Time",
						d.Name.Name, t, name.Name))
				}
			}
			// An unnamed result is judged by the function's own name:
			// func SlowTimeNs() int64 leaks a raw duration.
			if !named && timeNamed(d.Name.Name) {
				out = append(out, p.diag("simtime", field.Pos(),
					"exported %s returns a raw %s but is named like a time quantity: use sim.Duration/sim.Time",
					d.Name.Name, t))
			}
		}
	}
	return out
}

// checkStructTimes flags raw-numeric, time-named exported fields of an
// exported struct type.
func (p *Package) checkStructTimes(typeName string, st *ast.StructType) []Diagnostic {
	var out []Diagnostic
	for _, field := range st.Fields.List {
		t := p.Info.TypeOf(field.Type)
		if t == nil || !rawNumeric(t) {
			continue
		}
		for _, name := range field.Names {
			if name.IsExported() && timeNamed(name.Name) {
				out = append(out, p.diag("simtime", name.Pos(),
					"exported field %s.%s carries a raw %s duration: use sim.Duration/sim.Time",
					typeName, name.Name, t))
			}
		}
	}
	return out
}
