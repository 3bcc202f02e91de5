package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// This file is the intraprocedural dataflow engine behind the unitflow
// analyzer (and the summary store sharedstate and cachekey lean on for
// callee resolution). It computes, per function, the measurement unit each
// local value carries — a taint, seeded by the repository's naming
// convention (qBytes, droppedPkts, cwndSegs) and propagated through
// assignments, short variable declarations, range statements, function
// returns, and call results.
//
// The abstract domain is a four-point lattice over unitClass:
//
//	        unitMixed (⊤: conflicting units met)
//	       /    |     \
//	 unitBytes unitPackets unitSegments
//	       \    |     /
//	        unitUnknown (⊥: no unit information)
//
// joinUnits is the least upper bound. Multiplication, division, and the
// remaining non-additive operators return ⊥ — pkts*MSS is the legal
// conversion form, and clearing the taint there is what keeps conversions
// silent. Addition and subtraction join their operands; a join that lands
// on ⊤ is already a unitsafety/unitflow finding at the operator, so ⊤ never
// propagates a second diagnostic downstream.
//
// Interprocedural lifting: every declared function gets a summary — the
// unit of each result — computed bottom-up over the shared Program call
// graph to a fixed point (the lattice is finite, so iteration terminates;
// a conservative pass cap bounds pathological recursion). A callee whose
// name carries a unit suffix (Link.Bytes) is summarized by its name; an
// unsuffixed callee is summarized by the joined taint of its return
// expressions. Function values and interface calls with no module
// implementation summarize to ⊥ — the same documented hole as the call
// graph itself.
//
// Soundness caveats (documented in DESIGN.md): the engine runs one forward
// pass in source order with strong updates, so taint does not flow around
// loop back edges, and branches are not merged — the textually last write
// before a use wins. Both under- and over-approximation are possible; the
// pass is a lint, not a verifier.

// unitMixed is the lattice top: two different concrete units met.
const unitMixed unitClass = unitSegments + 1

// joinUnits is the least upper bound of the unit lattice.
func joinUnits(a, b unitClass) unitClass {
	switch {
	case a == b:
		return a
	case a == unitUnknown:
		return b
	case b == unitUnknown:
		return a
	default:
		return unitMixed
	}
}

// concreteUnit reports whether u is a single known unit (not ⊥ or ⊤).
func concreteUnit(u unitClass) bool {
	return u == unitBytes || u == unitPackets || u == unitSegments
}

// flowState maps function-local objects to the unit their current value
// carries. Only name-neutral locals are tracked: an identifier whose own
// name resolves a unit (qBytes) is always classified by its name.
type flowState map[types.Object]unitClass

// unitFlow is one function's flow analysis: the state threaded through a
// forward pass over the body, the joined taint of each return expression,
// and an optional diagnostic sink (nil while computing summaries).
type unitFlow struct {
	p    *Package
	prog *Program
	decl *ast.FuncDecl

	state flowState
	rets  []unitClass

	// sink receives unit-mismatch findings; nil runs propagation only.
	sink func(pos token.Pos, format string, args ...any)
}

func newUnitFlow(p *Package, prog *Program, decl *ast.FuncDecl) *unitFlow {
	uf := &unitFlow{p: p, prog: prog, decl: decl, state: make(flowState)}
	if decl.Type.Results != nil {
		uf.rets = make([]unitClass, decl.Type.Results.NumFields())
	}
	return uf
}

// pass runs one forward walk over the function body in source order,
// updating state at every definition and reporting mismatches to sink.
// Nested function literals are walked too (their assignments propagate in
// the enclosing state — closures share their captures), but their return
// statements answer the literal's own signature, not the declaring
// function's, and are excluded from the result-unit checks.
func (uf *unitFlow) pass() {
	var litRanges []posRange
	ast.Inspect(uf.decl.Body, func(node ast.Node) bool {
		if lit, ok := node.(*ast.FuncLit); ok {
			litRanges = append(litRanges, posRange{lit.Pos(), lit.End()})
		}
		return true
	})
	ast.Inspect(uf.decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.AssignStmt:
			uf.assign(node)
		case *ast.ValueSpec:
			uf.valueSpec(node)
		case *ast.RangeStmt:
			uf.rangeStmt(node)
		case *ast.ReturnStmt:
			if !inRanges(litRanges, node.Pos()) {
				uf.returnStmt(node)
			}
		case *ast.CallExpr:
			uf.callArgs(node)
		case *ast.BinaryExpr:
			uf.binary(node)
		case *ast.CompositeLit:
			uf.composite(node)
		}
		return true
	})
}

// exprUnit evaluates the unit an expression's value carries under the
// current state. Non-numeric expressions never carry a unit.
func (uf *unitFlow) exprUnit(e ast.Expr) unitClass {
	if !uf.p.isNumeric(e) {
		return unitUnknown
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return uf.exprUnit(e.X)
	case *ast.Ident:
		if u := unitOfName(e.Name); u != unitUnknown {
			return u
		}
		if obj := uf.objOf(e); obj != nil {
			return uf.state[obj]
		}
		return unitUnknown
	case *ast.SelectorExpr:
		return unitOfName(e.Sel.Name)
	case *ast.IndexExpr:
		// An element inherits its container's unit: reqBytes[i] is bytes.
		return uf.containerUnit(e.X)
	case *ast.CallExpr:
		return uf.callUnit(e)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.ADD, token.SUB:
			return joinUnits(uf.exprUnit(e.X), uf.exprUnit(e.Y))
		default:
			// *, /, %, shifts, bit ops: the legal conversion forms clear
			// the taint.
			return unitUnknown
		}
	case *ast.UnaryExpr:
		if e.Op == token.ADD || e.Op == token.SUB {
			return uf.exprUnit(e.X)
		}
		return unitUnknown
	default:
		return unitUnknown
	}
}

// containerUnit classifies an indexable expression (slice, array, map) by
// name or tracked state, bypassing exprUnit's numeric guard — the container
// itself is not numeric, its elements are.
func (uf *unitFlow) containerUnit(e ast.Expr) unitClass {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return uf.containerUnit(e.X)
	case *ast.Ident:
		if u := unitOfName(e.Name); u != unitUnknown {
			return u
		}
		if obj := uf.objOf(e); obj != nil {
			return uf.state[obj]
		}
	case *ast.SelectorExpr:
		return unitOfName(e.Sel.Name)
	}
	return unitUnknown
}

// callUnit summarizes a call expression: conversions are transparent,
// min/max join their arguments, other builtins clear, and a resolved module
// callee answers by name suffix first, then by its lifted summary.
func (uf *unitFlow) callUnit(call *ast.CallExpr) unitClass {
	if tv, ok := uf.p.Info.Types[call.Fun]; ok && tv.IsType() {
		// A type conversion re-types the value but keeps its unit.
		if len(call.Args) == 1 {
			return uf.exprUnit(call.Args[0])
		}
		return unitUnknown
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := uf.p.Info.Uses[id].(*types.Builtin); isBuiltin {
			if b.Name() == "min" || b.Name() == "max" {
				u := unitUnknown
				for _, a := range call.Args {
					u = joinUnits(u, uf.exprUnit(a))
				}
				return u
			}
			return unitUnknown
		}
	}
	callee, _ := uf.p.calleeOf(call)
	if callee == nil {
		return unitUnknown
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return unitUnknown
	}
	if u := unitOfName(callee.Name()); u != unitUnknown {
		return u
	}
	if sums := uf.prog.unitResultUnits(callee); len(sums) == 1 {
		return sums[0]
	}
	return unitUnknown
}

// objOf resolves an identifier to its object (use or definition).
func (uf *unitFlow) objOf(id *ast.Ident) types.Object {
	if o := uf.p.Info.Uses[id]; o != nil {
		return o
	}
	return uf.p.Info.Defs[id]
}

// declaredUnit is the unit a write destination is committed to by its name
// (identifier or selector field), or ⊥ when the name is neutral or the
// destination is not numeric.
func (uf *unitFlow) declaredUnit(e ast.Expr) unitClass {
	if !uf.p.isNumeric(e) {
		return unitUnknown
	}
	return unitOf(e)
}

// assign handles =, :=, and the additive op-assigns: it checks the incoming
// taint against the destination's declared unit and updates the state of
// name-neutral identifier destinations.
func (uf *unitFlow) assign(as *ast.AssignStmt) {
	switch as.Tok {
	case token.ASSIGN, token.DEFINE, token.ADD_ASSIGN, token.SUB_ASSIGN:
	default:
		// *=, /=, etc. are conversions; clear any tracked taint.
		for _, lhs := range as.Lhs {
			if id, ok := unparen(lhs).(*ast.Ident); ok {
				if obj := uf.objOf(id); obj != nil {
					delete(uf.state, obj)
				}
			}
		}
		return
	}
	if len(as.Lhs) == len(as.Rhs) {
		for i := range as.Lhs {
			uf.flow(as.Lhs[i], uf.exprUnit(as.Rhs[i]), as.Tok)
		}
		return
	}
	// Tuple assignment: a multi-result call or a comma-ok form.
	if len(as.Rhs) != 1 {
		return
	}
	switch rhs := unparen(as.Rhs[0]).(type) {
	case *ast.CallExpr:
		units := uf.tupleUnits(rhs, len(as.Lhs))
		for i := range as.Lhs {
			uf.flow(as.Lhs[i], units[i], as.Tok)
		}
	case *ast.IndexExpr:
		// v, ok := m[k]: the value inherits the map's unit.
		uf.flow(as.Lhs[0], uf.containerUnit(rhs.X), as.Tok)
	}
}

// tupleUnits resolves the per-result units of a multi-result call from the
// callee's lifted summary.
func (uf *unitFlow) tupleUnits(call *ast.CallExpr, n int) []unitClass {
	units := make([]unitClass, n)
	callee, _ := uf.p.calleeOf(call)
	if callee == nil {
		return units
	}
	sums := uf.prog.unitResultUnits(callee)
	copy(units, sums)
	return units
}

// flow records one value flowing into one destination: mismatch check
// against the destination's declared unit, then state update.
func (uf *unitFlow) flow(dst ast.Expr, incoming unitClass, tok token.Token) {
	dst = unparen(dst)
	if du := uf.declaredUnit(dst); concreteUnit(du) && concreteUnit(incoming) && du != incoming {
		uf.report(dst.Pos(), "%s value flows into %s destination %s", incoming, du, renderDst(dst))
	}
	id, ok := dst.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := uf.objOf(id)
	if obj == nil || unitOfName(id.Name) != unitUnknown {
		return // named destinations are classified by name, not flow
	}
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		uf.state[obj] = joinUnits(uf.state[obj], incoming)
	default:
		uf.state[obj] = incoming // strong update
	}
}

// renderDst names an assignment destination for a diagnostic.
func renderDst(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			return id.Name + "." + e.Sel.Name
		}
		return e.Sel.Name
	default:
		return "destination"
	}
}

// valueSpec handles var declarations with initializers inside the body.
func (uf *unitFlow) valueSpec(vs *ast.ValueSpec) {
	if len(vs.Values) != len(vs.Names) {
		return
	}
	for i, name := range vs.Names {
		uf.flow(name, uf.exprUnit(vs.Values[i]), token.DEFINE)
	}
}

// rangeStmt propagates the container's unit into the range value variable.
func (uf *unitFlow) rangeStmt(rs *ast.RangeStmt) {
	if rs.Value == nil {
		return
	}
	uf.flow(rs.Value, uf.containerUnit(rs.X), token.DEFINE)
}

// returnStmt joins each returned expression's taint into the summary and
// checks it against the declared unit of the result — the named result's
// name, or the function's own name for a single unnamed result.
func (uf *unitFlow) returnStmt(rs *ast.ReturnStmt) {
	if uf.decl.Type.Results == nil || len(rs.Results) != len(uf.rets) {
		return // no results, bare return with named results, or a tuple-call return
	}
	results := uf.decl.Type.Results.List
	for i, res := range rs.Results {
		ru := uf.exprUnit(res)
		uf.rets[i] = joinUnits(uf.rets[i], ru)
		du := uf.resultDeclaredUnit(results, i)
		if concreteUnit(du) && concreteUnit(ru) && du != ru {
			uf.report(res.Pos(), "%s value returned where %s declares a %s result",
				ru, uf.decl.Name.Name, du)
		}
	}
}

// resultDeclaredUnit is the unit the i-th result is committed to by its
// name, falling back to the function name for a single unnamed result.
func (uf *unitFlow) resultDeclaredUnit(results []*ast.Field, i int) unitClass {
	idx := 0
	for _, f := range results {
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		if i < idx+n {
			if len(f.Names) > 0 {
				return unitOfName(f.Names[i-idx].Name)
			}
			if len(uf.rets) == 1 {
				return unitOfName(uf.decl.Name.Name)
			}
			return unitUnknown
		}
		idx += n
	}
	return unitUnknown
}

// callArgs checks each argument's taint against the unit committed by the
// callee's parameter name (module functions with declarations only).
func (uf *unitFlow) callArgs(call *ast.CallExpr) {
	if uf.sink == nil {
		return
	}
	if tv, ok := uf.p.Info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	callee, _ := uf.p.calleeOf(call)
	if callee == nil {
		return
	}
	node := uf.prog.nodes[callee]
	if node == nil || call.Ellipsis.IsValid() {
		return
	}
	params := flattenParams(node.pkg, node.decl.Type.Params)
	sig, _ := callee.Type().(*types.Signature)
	for i, arg := range call.Args {
		if i >= len(params) {
			break
		}
		if sig != nil && sig.Variadic() && i >= sig.Params().Len()-1 {
			break // unit-per-name does not extend into a variadic tail
		}
		p := params[i]
		if p.name == "" || !isNumericType(p.typ) {
			continue
		}
		pu := unitOfName(p.name)
		au := uf.exprUnit(arg)
		if concreteUnit(pu) && concreteUnit(au) && pu != au {
			uf.report(arg.Pos(), "%s value passed to %s parameter %q of %s",
				au, pu, p.name, callee.Name())
		}
	}
}

// param pairs a declared parameter name with its type.
type param struct {
	name string
	typ  types.Type
}

// flattenParams expands a field list into one entry per declared name,
// resolving types through the declaring package's type info.
func flattenParams(pkg *Package, fields *ast.FieldList) []param {
	if fields == nil {
		return nil
	}
	var out []param
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			out = append(out, param{})
			continue
		}
		for _, n := range f.Names {
			var t types.Type
			if v, ok := pkg.Info.Defs[n].(*types.Var); ok {
				t = v.Type()
			}
			out = append(out, param{name: n.Name, typ: t})
		}
	}
	return out
}

// isNumericType reports whether t (possibly nil) is numeric.
func isNumericType(t types.Type) bool {
	if t == nil {
		return true // unresolved: assume numeric rather than silence a check
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}

// binary flags additive/comparison operators whose operands' *flow* units
// conflict. Operand pairs that both resolve syntactically by name are
// unitsafety's domain and are skipped here, so no site is reported twice.
func (uf *unitFlow) binary(be *ast.BinaryExpr) {
	if uf.sink == nil || !mixingOps[be.Op] {
		return
	}
	if !uf.p.isNumeric(be.X) || !uf.p.isNumeric(be.Y) {
		return
	}
	if unitOf(be.X) != unitUnknown && unitOf(be.Y) != unitUnknown {
		return
	}
	tx, ty := uf.exprUnit(be.X), uf.exprUnit(be.Y)
	if concreteUnit(tx) && concreteUnit(ty) && tx != ty {
		uf.report(be.OpPos, "operator %s mixes flow units: left operand carries %s, right operand carries %s",
			be.Op, tx, ty)
	}
}

// composite checks keyed struct literals: the value's taint against the
// unit committed by the field name.
func (uf *unitFlow) composite(cl *ast.CompositeLit) {
	t := uf.p.Info.TypeOf(cl)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Struct); !ok {
		return
	}
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		fv, ok := uf.p.Info.Uses[key].(*types.Var)
		if !ok || !isNumericType(fv.Type()) {
			continue
		}
		fu := unitOfName(key.Name)
		vu := uf.exprUnit(kv.Value)
		if concreteUnit(fu) && concreteUnit(vu) && fu != vu {
			uf.report(kv.Value.Pos(), "%s value flows into %s field %s", vu, fu, key.Name)
		}
	}
}

func (uf *unitFlow) report(pos token.Pos, format string, args ...any) {
	if uf.sink != nil {
		uf.sink(pos, format, args...)
	}
}

// unitResultUnits returns fn's lifted summary: the unit of each result, ⊥
// where nothing is known. Safe to call during summary construction — an
// in-progress module answers from the current (monotonically growing)
// table.
func (prog *Program) unitResultUnits(fn *types.Func) []unitClass {
	if prog.unitSummaries == nil {
		return nil
	}
	return prog.unitSummaries[fn]
}

// summaryPassCap bounds the interprocedural fixed-point iteration. The
// lattice has height 2 per result, so real modules converge in two or
// three passes; the cap only guards degenerate recursion.
const summaryPassCap = 6

// fixSummaries is the one interprocedural fixed point: it re-summarizes
// every function in deterministic node order, storing into table (which
// summarize reads, through the engine's call transfer, for callees), until
// a whole pass changes nothing or summaryPassCap is reached. A function
// with no stored summary reads as the empty one.
func fixSummaries[E comparable](prog *Program, table map[*types.Func][]E, summarize func(*funcNode) []E) {
	for pass := 0; pass < summaryPassCap; pass++ {
		changed := false
		for _, n := range prog.order {
			if sum := summarize(n); !slices.Equal(table[n.fn], sum) {
				table[n.fn] = sum
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// buildUnitSummaries computes the per-function result-unit table over the
// whole program.
func (prog *Program) buildUnitSummaries() {
	prog.build()
	if prog.unitSummaries != nil {
		return
	}
	prog.unitSummaries = make(map[*types.Func][]unitClass)
	fixSummaries(prog, prog.unitSummaries, prog.summarize)
}

// summarize computes one function's result units: the declared name wins
// (a result called nBytes or a single-result function called Bytes is a
// byte contract regardless of the body), otherwise the joined taint of the
// return expressions.
func (prog *Program) summarize(n *funcNode) []unitClass {
	if n.decl.Type.Results == nil || n.decl.Type.Results.NumFields() == 0 {
		return nil
	}
	uf := newUnitFlow(n.pkg, prog, n.decl)
	uf.pass()
	out := make([]unitClass, len(uf.rets))
	for i := range out {
		if du := uf.resultDeclaredUnit(n.decl.Type.Results.List, i); du != unitUnknown {
			out[i] = du
			continue
		}
		if concreteUnit(uf.rets[i]) {
			out[i] = uf.rets[i]
		}
	}
	return out
}
