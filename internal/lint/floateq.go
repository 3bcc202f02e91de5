package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
)

// FloatEq returns the analyzer that flags == and != between floating-point
// operands. After any arithmetic, exact float equality is a rounding
// accident — and a nondeterminism hazard the moment evaluation order or
// compiler fusion changes. Comparison against an exact zero literal stays
// legal: 0 is precisely representable, and "has this accumulator ever been
// touched" is a legitimate discrete question.
//
// Test files are not analyzed at all, so table-driven test expectations
// remain unaffected.
func FloatEq() *Analyzer {
	return &Analyzer{
		Name: "floateq",
		Run:  runFloatEq,
	}
}

func runFloatEq(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !p.isFloat(be.X) && !p.isFloat(be.Y) {
				return true
			}
			if p.isZeroConst(be.X) || p.isZeroConst(be.Y) {
				return true
			}
			out = append(out, p.diag("floateq", be.OpPos,
				"floating-point %s comparison: compare with a tolerance", be.Op))
			return true
		})
	}
	return out
}

// isZeroConst reports whether e is a compile-time constant equal to zero.
func (p *Package) isZeroConst(e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		v, _ := constant.Float64Val(tv.Value)
		return v == 0
	}
	return false
}
