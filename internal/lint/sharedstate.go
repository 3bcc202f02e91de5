package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// poolForEachPath is the fully qualified name of the sweep worker-pool
// entry point; function literals passed to it run concurrently.
const poolForEachPath = "dctcpplus/internal/sweep/pool.ForEach"

// SharedState returns the analyzer that extends sweepsafety from
// package-level globals to *captured locals*. sweepsafety proves a sweep
// job never writes a global; the remaining race class — the one
// internal/sweep/pool actively invites — is a local captured by reference
// in a concurrently executed closure:
//
//	sum := 0
//	pool.ForEach(workers, n, func(w, i int) {
//		sum += weigh(i)     // flagged: workers race on sum
//	})
//
// Two closure contexts are checked:
//
//   - function literals passed to pool.ForEach, anywhere in the module
//     (the pool contract says the body runs on several goroutines);
//   - function literals launched with `go` inside //sweep:job-reachable
//     code (the goroutine outlives the expression and races with its
//     siblings and its spawner).
//
// Inside such a literal, a write (assignment, ++/--, delete/clear/copy)
// whose destination resolves to a variable declared *outside* the literal
// is flagged. The sanctioned idioms stay silent: writing through a slice
// index that mentions one of the literal's own parameters — out[i] = ...
// with i the job index, rigs[w] with w the calling worker's — touches a
// slot no other call writes concurrently. Map
// writes are flagged regardless of index — concurrent map writes fault at
// run time no matter how the keys partition. A write lexically preceded by
// a sync.Locker Lock() call in the same literal is exempt.
//
// Package-level destinations inside go-statement literals are left to
// sweepsafety, which already reports them; literals passed to pool.ForEach
// are checked for globals here too, because outside sweep-reachable code
// sweepsafety never looks at them.
func SharedState() *Analyzer {
	return &Analyzer{
		Name: "sharedstate",
		Doc:  "flag unsynchronized writes to captured variables inside concurrently executed closures",
		Run:  runSharedState,
	}
}

func runSharedState(p *Package) []Diagnostic {
	if p.Prog == nil {
		return nil
	}
	var out []Diagnostic

	// Context A: literals handed to pool.ForEach, in any function.
	for _, f := range p.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee, _ := p.calleeOf(call)
			if callee == nil || callee.FullName() != poolForEachPath {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := unparen(arg).(*ast.FuncLit); ok {
					out = append(out, p.closureWrites(lit, false,
						"closure passed to pool.ForEach")...)
				}
			}
			return true
		})
	}

	// Context B: goroutines launched inside sweep-reachable functions.
	for _, n := range p.Prog.sweepNodesIn(p) {
		where := sweepRootLabel(n.fn, p.Prog.sweepRootsOf(n.fn))
		ast.Inspect(n.decl.Body, func(node ast.Node) bool {
			gs, ok := node.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := unparen(gs.Call.Fun).(*ast.FuncLit); ok {
				out = append(out, p.closureWrites(lit, true,
					"goroutine launched in sweep code "+where)...)
			}
			return true
		})
	}
	return out
}

// closureWrites flags the unsynchronized captured-variable writes in one
// concurrently executed function literal. skipPkgLevel hands package-level
// destinations to sweepsafety instead of reporting them twice.
func (p *Package) closureWrites(lit *ast.FuncLit, skipPkgLevel bool, context string) []Diagnostic {
	params := p.litParams(lit)
	locks := p.lockPositions(lit)
	var out []Diagnostic

	flag := func(pos token.Pos, v *types.Var, how string) {
		if precededByLock(locks, pos) {
			return
		}
		if skipPkgLevel && isPkgLevel(v) {
			return
		}
		out = append(out, p.diag("sharedstate", pos,
			"%s %s captured %s by reference: concurrent workers race on it; write to a worker-indexed slot or hold a mutex",
			context, how, v.Name()))
	}

	ast.Inspect(lit.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			return node == lit // nested literals are their own capture scope
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				if v := p.capturedTarget(lit, params, lhs); v != nil {
					flag(lhs.Pos(), v, "writes")
				}
			}
		case *ast.IncDecStmt:
			if v := p.capturedTarget(lit, params, node.X); v != nil {
				flag(node.X.Pos(), v, "writes")
			}
		case *ast.CallExpr:
			if name, arg := mutatingBuiltin(p, node); arg != nil {
				if v := p.capturedTarget(lit, params, arg); v != nil {
					flag(arg.Pos(), v, name+"-mutates")
				}
			}
		}
		return true
	})
	return out
}

// litParams collects the objects declared by the literal's own parameter
// list (the worker/index arguments the pool passes in).
func (p *Package) litParams(lit *ast.FuncLit) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if lit.Type.Params == nil {
		return out
	}
	for _, f := range lit.Type.Params.List {
		for _, name := range f.Names {
			if obj := p.Info.Defs[name]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// lockPositions records the positions of sync.Locker Lock() calls in the
// literal body; a write after a Lock is treated as guarded.
func (p *Package) lockPositions(lit *ast.FuncLit) []token.Pos {
	var out []token.Pos
	ast.Inspect(lit.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Lock" {
			return true
		}
		if isSyncType(p.Info.TypeOf(sel.X)) {
			out = append(out, call.Pos())
		}
		return true
	})
	return out
}

func precededByLock(locks []token.Pos, pos token.Pos) bool {
	for _, l := range locks {
		if l < pos {
			return true
		}
	}
	return false
}

// isSyncType reports whether t (possibly behind a pointer) is a named type
// declared in package sync.
func isSyncType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync"
}

// capturedTarget resolves a write destination to the captured variable it
// mutates, or nil when the write is literal-local or lands in a
// worker-private slot. The access path is unwrapped like sweepsafety's
// pkgLevelTarget, with two concurrency-specific twists: a map index is a
// race no matter the key, and a slice index that mentions one of the
// literal's parameters addresses a disjoint element and passes.
func (p *Package) capturedTarget(lit *ast.FuncLit, params map[types.Object]bool, expr ast.Expr) *types.Var {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.IndexExpr:
			t := p.Info.TypeOf(e.X)
			if t != nil {
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					// Slice/array element: the worker-indexed idiom
					// out[i] = ... writes a private slot.
					if p.refsParam(e.Index, params) {
						return nil
					}
				}
			}
			expr = e.X
		case *ast.SelectorExpr:
			if id, ok := e.X.(*ast.Ident); ok {
				if _, isPkg := p.Info.Uses[id].(*types.PkgName); isPkg {
					expr = e.Sel
					continue
				}
			}
			expr = e.X
		case *ast.Ident:
			v, ok := p.Info.Uses[e].(*types.Var)
			if !ok {
				v, ok = p.Info.Defs[e].(*types.Var)
			}
			if !ok {
				return nil
			}
			if declaredInside(lit, v) || params[v] {
				return nil
			}
			return v
		default:
			return nil
		}
	}
}

// refsParam reports whether the expression mentions any of the literal's
// own parameters.
func (p *Package) refsParam(e ast.Expr, params map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(node ast.Node) bool {
		if id, ok := node.(*ast.Ident); ok && params[p.Info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

// declaredInside reports whether v's declaration lies within the literal.
func declaredInside(lit *ast.FuncLit, v *types.Var) bool {
	return lit.Pos() <= v.Pos() && v.Pos() < lit.End()
}

// isPkgLevel reports whether v is a package-level variable.
func isPkgLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}
