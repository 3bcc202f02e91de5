package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// poolForEachPath is the fully qualified name of the sweep worker-pool
// entry point; function literals passed to it run concurrently.
const poolForEachPath = "dctcpplus/internal/sweep/pool.ForEach"

// SharedState returns the analyzer for one rule: concurrently executed code
// writes no shared state. The sweep's determinism argument ("a job is a
// pure function of its Point") holds only if nothing a job runs writes
// state a sibling can see. The rule applies in three contexts:
//
//   - functions statically reachable from a //sweep:job root (the
//     whole-module closure hotalloc uses for //hot:path) write no
//     package-level variable;
//   - function literals passed to pool.ForEach, anywhere in the module,
//     write no variable captured by reference;
//   - nor do literals launched with `go` in //sweep:job-reachable code.
//
// The second is the race class internal/sweep/pool actively invites:
//
//	sum := 0
//	pool.ForEach(workers, n, func(w, i int) {
//		sum += weigh(i)     // flagged: workers race on sum
//	})
//
// A write is an assignment (+=, ++ and friends included) or delete, clear
// or copy; its destination is unwrapped through fields, indexes, slices
// and dereferences, so writing Global.Field, Global[i] or *GlobalPtr
// writes Global. Reads stay legal: configuration tables like exp.Protocols
// are written only during init. Inside a literal a slice index mentioning
// one of its own parameters — out[i] with i the job, rigs[w] with w the
// worker — is a slot no other call writes and passes; a map write never
// does, whatever its key. A write is exempt while a sync.Locker is held:
// the last Lock or Unlock call before it in the literal is a Lock (a
// deferred Unlock releases at exit, so it does not count). A package-level
// write in a go-statement literal is reported once, as a sweep-code write.
// A write that is genuinely safe belongs behind a method of a passed-in
// object — the telemetry registry is the model — or, as a last resort,
// under a //lint:allow sharedstate directive with a reason.
func SharedState() *Analyzer {
	return &Analyzer{
		Name: "sharedstate",
		Doc:  "forbid writes to shared state in concurrently executed code: package-level state under //sweep:job, captured variables in worker closures",
		Run:  runSharedState,
	}
}

func runSharedState(p *Package) []Diagnostic {
	if p.Prog == nil {
		return nil
	}
	var out []Diagnostic

	// Literals handed to pool.ForEach, in any function.
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

	// Sweep-reachable functions: package-level writes anywhere in them,
	// nested literals included, and captured writes in the goroutines they
	// launch.
	for _, n := range p.Prog.sweepNodesIn(p) {
		where := sweepRootLabel(n.fn, p.Prog.sweepRootsOf(n.fn))
		p.eachWrite(n.decl.Body, true, func(target ast.Expr, builtin string) {
			v := p.writeTarget(nil, nil, target)
			if v == nil {
				return
			}
			what := "write to"
			if builtin != "" {
				what = builtin + " mutates"
			}
			out = append(out, p.diag("sharedstate", target.Pos(),
				"%s package-level %s in worker-executed sweep code %s: jobs run concurrently and must mutate only job-local state",
				what, v.Name(), where))
		})
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

// eachWrite calls fn for every write in body: each assignment and ++/--
// target, and the first argument of the builtins delete, clear and copy
// (builtin names the builtin, and is empty for the other writes). Nested
// function literals are visited only when nested is set.
func (p *Package) eachWrite(body *ast.BlockStmt, nested bool, fn func(target ast.Expr, builtin string)) {
	ast.Inspect(body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			return nested
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				fn(lhs, "")
			}
		case *ast.IncDecStmt:
			fn(node.X, "")
		case *ast.CallExpr:
			id, ok := unparen(node.Fun).(*ast.Ident)
			if !ok || len(node.Args) == 0 {
				return true
			}
			if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin &&
				(id.Name == "delete" || id.Name == "clear" || id.Name == "copy") {
				fn(node.Args[0], id.Name)
			}
		}
		return true
	})
}

// closureWrites flags the unguarded captured-variable writes in one
// concurrently executed function literal. skipPkgLevel leaves
// package-level destinations to the sweep-code report, which already
// covers them.
func (p *Package) closureWrites(lit *ast.FuncLit, skipPkgLevel bool, context string) []Diagnostic {
	params := p.litParams(lit)
	var out []Diagnostic
	p.eachWrite(lit.Body, false, func(target ast.Expr, builtin string) {
		v := p.writeTarget(lit, params, target)
		if v == nil || skipPkgLevel && isPkgLevel(v) || p.lockHeld(lit, target.Pos()) {
			return
		}
		how := "writes"
		if builtin != "" {
			how = builtin + "-mutates"
		}
		out = append(out, p.diag("sharedstate", target.Pos(),
			"%s %s captured %s by reference: concurrent workers race on it; write to a worker-indexed slot or hold a mutex",
			context, how, v.Name()))
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

// lockHeld reports whether the last sync.Locker Lock or Unlock call before
// pos in the literal is a Lock. Deferred calls are skipped: a deferred
// Unlock releases at exit, not where it is written.
func (p *Package) lockHeld(lit *ast.FuncLit, pos token.Pos) bool {
	held := false
	ast.Inspect(lit.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			sel, ok := unparen(node.Fun).(*ast.SelectorExpr)
			if ok && node.Pos() < pos && (sel.Sel.Name == "Lock" || sel.Sel.Name == "Unlock") && isSyncType(p.Info.TypeOf(sel.X)) {
				held = sel.Sel.Name == "Lock"
			}
		}
		return true
	})
	return held
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

// writeTarget resolves a write destination to the shared variable it
// mutates, or nil. It unwraps the lvalue's access path (fields, indexes,
// slices, dereferences): writing Global.Field, Global[i] or *GlobalPtr
// mutates what writing Global would. With lit nil it answers "is this
// package-level?". Inside lit it answers "is this captured?": the variable
// is declared outside the literal and is not one of its params — except
// that a slice or array index mentioning a param addresses a
// worker-private slot and passes, while a map index races whatever its
// key.
func (p *Package) writeTarget(lit *ast.FuncLit, params map[types.Object]bool, expr ast.Expr) *types.Var {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.IndexExpr:
			if t := p.Info.TypeOf(e.X); lit != nil && t != nil {
				if _, isMap := t.Underlying().(*types.Map); !isMap && p.refsParam(e.Index, params) {
					return nil
				}
			}
			expr = e.X
		case *ast.SelectorExpr:
			if id, ok := e.X.(*ast.Ident); ok {
				if _, isPkg := p.Info.Uses[id].(*types.PkgName); isPkg {
					expr = e.Sel // qualified reference: pkg.Var
					continue
				}
			}
			expr = e.X
		case *ast.Ident:
			v, ok := p.Info.Uses[e].(*types.Var)
			if !ok {
				v, ok = p.Info.Defs[e].(*types.Var)
			}
			switch {
			case !ok:
				return nil
			case lit == nil:
				if isPkgLevel(v) {
					return v
				}
				return nil
			case declaredInside(lit, v) || params[v]:
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
