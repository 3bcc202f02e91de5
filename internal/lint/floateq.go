package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
)

// FloatEq returns the analyzer that flags == and != between floating-point
// operands. After any arithmetic, exact float equality is a rounding
// accident — and a nondeterminism hazard the moment evaluation order or
// compiler fusion changes. Two forms stay legal:
//
//   - comparison against an exact zero literal (0 is precisely
//     representable, and "has this accumulator ever been touched" is a
//     legitimate discrete question);
//   - intentional exact comparisons annotated with an inline
//     //lint:allow floateq directive explaining why exactness is sound
//     (e.g. both operands are copies of the same stored value).
//
// Test files are not analyzed by simlint at all, so table-driven test
// expectations remain unaffected.
func FloatEq() *Analyzer {
	return &Analyzer{
		Name: "floateq",
		Doc:  "flag ==/!= on floating-point operands (exact-zero compares exempt)",
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
				"floating-point %s comparison: compare with a tolerance, or annotate why exact equality is sound", be.Op))
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
