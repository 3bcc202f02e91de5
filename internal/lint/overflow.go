package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Overflow reports unbounded accumulation (x++, x += e, and their downward
// twins) on narrow integer struct fields in code reachable from //hot:path
// roots — the code that runs once per packet, where "only overflows at
// N=2000×seed scale" is exactly the class no test tier catches. Nothing per-function can bound cross-call
// growth, so a finding is either widened to int64 or excused with a
// //lint:allow overflow directive whose reason names the bound and the
// always-on check or guard that enforces it. Plain int/uint count as
// narrow: a tally that is only safe on 64-bit hosts is a latent port bug.
// Locals are exempt (loop counters don't accumulate across calls).
func Overflow() *Analyzer {
	return &Analyzer{
		Name: "overflow",
		Doc:  "flag unbounded narrow-integer accumulation in hot-path-reachable code",
		Run:  runOverflow,
	}
}

func runOverflow(p *Package) []Diagnostic {
	if p.Prog == nil {
		return nil
	}
	var out []Diagnostic
	for _, n := range p.Prog.hotNodesIn(p) {
		out = append(out, accumulations(p, n, rootLabel(n.fn, p.Prog.hotRootsOf(n.fn)))...)
	}
	return out
}

// accumulations flags every ++/--/+=/-= in one reachable function (inline
// function literals included) whose target is a narrow-integer struct
// field, or an element of a field-held slice or array.
func accumulations(p *Package, n *funcNode, label string) []Diagnostic {
	var out []Diagnostic
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		var lhs ast.Expr
		var up bool
		var pos token.Pos
		switch s := node.(type) {
		case *ast.IncDecStmt:
			lhs, up, pos = s.X, s.Tok == token.INC, s.TokPos
		case *ast.AssignStmt:
			if s.Tok != token.ADD_ASSIGN && s.Tok != token.SUB_ASSIGN {
				return true
			}
			lhs, up, pos = s.Lhs[0], s.Tok == token.ADD_ASSIGN, s.TokPos
		default:
			return true
		}
		b, ok := p.Info.TypeOf(lhs).Underlying().(*types.Basic)
		if !ok || !narrowIntKind(b.Kind()) {
			return true
		}
		target := unparen(lhs)
		if ix, ok := target.(*ast.IndexExpr); ok {
			target = unparen(ix.X)
		}
		sel, ok := target.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fv, ok := p.Info.Uses[sel.Sel].(*types.Var)
		if !ok || !fv.IsField() {
			return true
		}
		dir := "grows without an upper bound"
		if !up {
			dir = "shrinks without a lower bound"
		}
		out = append(out, p.diag("overflow", pos,
			"%s-typed accumulation %s %s and can wrap %s; widen to int64",
			b.Name(), types.ExprString(lhs), dir, label))
		return true
	})
	return out
}

// narrowIntKind reports integer kinds the accumulation rule treats as
// narrow. Plain int/uint count: the module targets 32-bit floors for
// portability, and a cumulative tally that is only safe on 64-bit hosts
// is exactly the bug class this analyzer exists for.
func narrowIntKind(k types.BasicKind) bool {
	switch k {
	case types.Int, types.Int8, types.Int16, types.Int32,
		types.Uint, types.Uint8, types.Uint16, types.Uint32:
		return true
	}
	return false
}
