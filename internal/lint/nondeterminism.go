package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Nondeterminism returns the analyzer that guards the simulator's core
// property: a run is a pure function of configuration and seed. It flags
//
//  1. wall-clock reads (time.Now and friends) outside the built-in
//     allowlist — run metadata in cmd/ binaries and the telemetry
//     manifest's CreatedAt stamp;
//  2. any import of math/rand or math/rand/v2: every stochastic decision
//     must draw from sim.RNG, whose sequence is pinned by this repository
//     rather than by the Go release;
//  3. iteration over a map whose body is order-sensitive (Go randomizes
//     map range order per run) — the deterministic idioms (collect keys
//     then sort, commutative integer accumulation, keyed writes into
//     another map) pass;
//  4. goroutine spawns inside simulation-scheduled packages (anything
//     importing internal/sim): the event loop is single-threaded by
//     design, and concurrency inside it would make event interleaving
//     scheduler-dependent. internal/exp and internal/sweep are exempted
//     (goroutineAllowed): they run whole, isolated simulations per worker.
//
// Inside a //hot:path function and everything statically reachable from one
// (the shared call graph, see Program) the two allowances are void: cmd/ may
// read the wall clock for run metadata and internal/exp may spawn goroutines
// for sweep parallelism, but per-event code may do neither, whichever file
// or package it lands in. Rules 2 and 3 have no allowance to void. Such a
// finding names the hot root it is reachable from.
func Nondeterminism() *Analyzer {
	return &Analyzer{
		Name: "nondeterminism",
		Doc:  "forbid wall-clock reads, math/rand, order-sensitive map iteration, and goroutines in sim-scheduled code (no allowances under //hot:path roots)",
		Run:  runNondeterminism,
	}
}

// wallClockFuncs are the time-package functions that observe or depend on
// the wall clock. Pure constructors/formatters (time.Duration arithmetic,
// time.Unix on a fixed stamp) stay legal: only reading "now" breaks replay.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// wallClockAllowed reports whether file may read the wall clock: command
// binaries (run metadata, progress reporting), the telemetry manifest
// (CreatedAt is wall-clock by definition and excluded from determinism
// diffs), and the sweep runner (per-job wall timings are reporting
// metadata; they never feed back into simulation state).
func wallClockAllowed(file string) bool {
	file = strings.ReplaceAll(file, "\\", "/")
	return strings.Contains(file, "/cmd/") ||
		strings.HasSuffix(file, "internal/telemetry/manifest.go") ||
		strings.HasSuffix(file, "internal/sweep/runner.go")
}

// goroutineAllowed reports whether pkg may spawn goroutines despite
// importing the sim engine. internal/exp's sweep driver and the sweep
// runner parallelize across whole simulations (each goroutine owns a
// private scheduler), so event interleaving inside any one run is
// untouched.
func goroutineAllowed(pkg string) bool {
	return pkg == "dctcpplus/internal/exp" ||
		pkg == "dctcpplus/internal/sweep"
}

func runNondeterminism(p *Package) []Diagnostic {
	var out []Diagnostic
	simScheduled := p.importsSim() && !goroutineAllowed(p.ImportPath)

	for _, f := range p.Files {
		file := p.Fset.Position(f.Pos()).Filename

		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				out = append(out, p.diag("nondeterminism", imp.Pos(),
					"import of %s: use sim.RNG, whose sequence is pinned by this repository", path))
			}
		}

		for _, d := range f.Decls {
			// Under a //hot:path root both allowances are void, and the
			// finding names the root in place of the file or package rule.
			hot := false
			clockWhere, goWhere := "in simulation code", "in sim-scheduled package "+p.ImportPath
			if fd, ok := d.(*ast.FuncDecl); ok {
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				if roots := p.Prog.hotRootsOf(fn); len(roots) > 0 {
					hot = true
					clockWhere = "on a hot path " + rootLabel(fn, roots)
					goWhere = clockWhere
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok || !wallClockFuncs[sel.Sel.Name] {
						return true
					}
					if p.isPkgIdent(sel.X, "time") && (hot || !wallClockAllowed(file)) {
						out = append(out, p.diag("nondeterminism", n.Pos(),
							"wall-clock read time.%s %s: use the sim.Scheduler clock", sel.Sel.Name, clockWhere))
					}
				case *ast.GoStmt:
					if hot || simScheduled {
						out = append(out, p.diag("nondeterminism", n.Pos(),
							"goroutine spawn %s: the event loop is single-threaded by design", goWhere))
					}
				case *ast.RangeStmt:
					out = append(out, p.checkMapRange(f, n)...)
				}
				return true
			})
		}
	}
	return out
}

// checkMapRange flags a range over a map unless every statement in the
// loop body is order-insensitive.
func (p *Package) checkMapRange(file *ast.File, rs *ast.RangeStmt) []Diagnostic {
	t := p.Info.TypeOf(rs.X)
	if t == nil {
		return nil
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return nil
	}
	ins := mapRangeInspector{
		p:       p,
		keyObj:  p.rangeVarObj(rs.Key),
		valObj:  p.rangeVarObj(rs.Value),
		fn:      enclosingFunc(file, rs.Pos()),
		loopPos: rs.Pos(),
	}
	for _, st := range rs.Body.List {
		if !ins.orderInsensitive(st) {
			return []Diagnostic{p.diag("nondeterminism", rs.Pos(),
				"map iteration order is randomized: this loop body is order-sensitive "+
					"(collect and sort the keys, or restrict the body to commutative updates)")}
		}
	}
	return nil
}

// rangeVarObj resolves the object of a range variable expression (Key or
// Value), or nil.
func (p *Package) rangeVarObj(e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := p.Info.Defs[id]; obj != nil {
		return obj
	}
	return p.Info.Uses[id]
}

// enclosingFunc returns the innermost function declaration or literal body
// containing pos, for the sorted-afterwards check.
func enclosingFunc(file *ast.File, pos token.Pos) ast.Node {
	var fn ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			if n.Pos() <= pos && pos < n.End() {
				fn = n // keep innermost: later matches are nested deeper
			}
		}
		return true
	})
	return fn
}

// mapRangeInspector classifies loop-body statements of a map range as
// order-insensitive or not.
type mapRangeInspector struct {
	p       *Package
	keyObj  types.Object
	valObj  types.Object
	fn      ast.Node
	loopPos token.Pos
}

// orderInsensitive reports whether executing st for the map's entries in
// any order yields identical state.
func (m *mapRangeInspector) orderInsensitive(st ast.Stmt) bool {
	switch st := st.(type) {
	case *ast.AssignStmt:
		return m.assignInsensitive(st)
	case *ast.IncDecStmt:
		// n++ / n-- on an integer accumulator commutes exactly.
		return m.isIntLvalue(st.X)
	case *ast.IfStmt:
		if st.Init != nil || !m.pureExpr(st.Cond) {
			return false
		}
		for _, s := range st.Body.List {
			if !m.orderInsensitive(s) {
				return false
			}
		}
		if st.Else != nil {
			els, ok := st.Else.(*ast.BlockStmt)
			if !ok {
				return false
			}
			for _, s := range els.List {
				if !m.orderInsensitive(s) {
					return false
				}
			}
		}
		return true
	case *ast.BranchStmt:
		return st.Tok == token.CONTINUE
	case *ast.ExprStmt:
		// delete(other, k): keyed map ops commute across distinct keys.
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// assignInsensitive classifies assignments:
//
//   - m2[k] = v / m2[k] op= v where k is the range key: each map entry is
//     written exactly once, so order cannot matter;
//   - x += e / x -= e on integer accumulators: exact commutative update
//     (float accumulation is order-sensitive in IEEE arithmetic);
//   - s = append(s, expr): allowed only when s is sorted later in the same
//     function — the collect-then-sort idiom.
func (m *mapRangeInspector) assignInsensitive(st *ast.AssignStmt) bool {
	if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
		return false
	}
	lhs, rhs := st.Lhs[0], st.Rhs[0]

	if idx, ok := lhs.(*ast.IndexExpr); ok {
		if id, ok := idx.Index.(*ast.Ident); ok && m.keyObj != nil {
			obj := m.p.Info.Uses[id]
			if obj == m.keyObj {
				if _, isMap := m.p.Info.TypeOf(idx.X).Underlying().(*types.Map); isMap {
					return m.pureExpr(rhs)
				}
			}
		}
	}

	switch st.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		return m.isIntLvalue(lhs) && m.pureExpr(rhs)
	case token.ASSIGN:
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" || len(call.Args) < 2 {
			return false
		}
		dst, ok := lhs.(*ast.Ident)
		if !ok {
			return false
		}
		src, ok := call.Args[0].(*ast.Ident)
		if !ok || src.Name != dst.Name {
			return false
		}
		obj := m.p.Info.Uses[dst]
		if obj == nil {
			obj = m.p.Info.Defs[dst]
		}
		return obj != nil && m.sortedLater(obj)
	}
	return false
}

// isIntLvalue reports whether e is an integer-typed assignable expression.
func (m *mapRangeInspector) isIntLvalue(e ast.Expr) bool {
	t := m.p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// pureExpr conservatively decides whether evaluating e has no side effects
// and no order dependence: identifiers, selectors, literals, index
// expressions, conversions and arithmetic over those. Any call is impure.
func (m *mapRangeInspector) pureExpr(e ast.Expr) bool {
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			// Conversions (T(x)) and len/cap are fine; other calls are not.
			switch fn := call.Fun.(type) {
			case *ast.Ident:
				if fn.Name == "len" || fn.Name == "cap" {
					return true
				}
				if _, isType := m.p.Info.Types[fn]; isType && m.p.Info.Types[fn].IsType() {
					return true
				}
			case *ast.SelectorExpr:
				if tv, ok := m.p.Info.Types[fn]; ok && tv.IsType() {
					return true
				}
			}
			pure = false
			return false
		}
		return true
	})
	return pure
}

// sortedLater reports whether the slice object is passed to a sort call
// (sort.Ints, sort.Strings, sort.Slice, sort.Sort over a wrapper that
// mentions it, slices.Sort*) somewhere after the loop in the enclosing
// function.
func (m *mapRangeInspector) sortedLater(slice types.Object) bool {
	if m.fn == nil {
		return false
	}
	found := false
	ast.Inspect(m.fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < m.loopPos || found {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if !m.p.isPkgIdent(sel.X, "sort") && !m.p.isPkgIdent(sel.X, "slices") {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && m.p.Info.Uses[id] == slice {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
