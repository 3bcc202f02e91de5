package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Overflow reports two wraparound bug classes in code reachable from
// //hot:path or //sweep:job roots — the code that runs once per packet or
// once per sweep job, where "only overflows at N=2000×seed scale" is
// exactly the class no test tier catches:
//
//  1. Unbounded accumulation (x++, x += e, and their downward twins) on
//     narrow integer struct fields. Nothing per-function can bound
//     cross-call growth, so the only discharge is an //inv: contract
//     bounding the growing side (its runtime twin enforces the bound; see
//     contracts.go); everything else must widen to int64. Plain int/uint
//     count as narrow: a tally that is only safe on 64-bit hosts is a
//     latent port bug. Locals are exempt (loop counters don't accumulate
//     across calls).
//
//  2. Sequence-number arithmetic on sub-64-bit values: ordering
//     comparisons or subtraction on seq/ack-named narrow values wrap at
//     the type boundary and must go through the modular-compare helpers
//     (packet.SeqLT/SeqGEQ/SeqDelta). Functions named Seq* are the
//     helpers themselves and are exempt; the module's own int64 sequence
//     space never wraps and is exempt by width.
//
// As the one consumer of //inv: contracts it also reports the malformed
// ones, in the package that declares them.
func Overflow() *Analyzer {
	return &Analyzer{
		Name: "overflow",
		Doc:  "flag unbounded narrow-integer accumulation and wraparound-unsafe sequence arithmetic in hot/sweep-reachable code",
		Run:  runOverflow,
	}
}

func runOverflow(p *Package) []Diagnostic {
	prog := p.Prog
	if prog == nil {
		return nil
	}
	ct := prog.contracts()
	out := append([]Diagnostic(nil), ct.errs[p]...)
	for _, n := range prog.order {
		if n.pkg != p {
			continue
		}
		label, reachable := reachLabel(prog, n.fn)
		if !reachable {
			continue
		}
		out = append(out, accumulations(p, n, ct, label)...)
		out = append(out, seqArith(p, n, label)...)
	}
	return out
}

// accumulations flags every ++/--/+=/-= in one reachable function (inline
// function literals included) whose target is a narrow-integer struct
// field, or an element of a field-held slice or array, unless the field's
// //inv: contract bounds the growing side.
func accumulations(p *Package, n *funcNode, ct *contractTable, label string) []Diagnostic {
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
		if fc, ok := ct.fields[fv]; ok && fc.bounds(up) {
			return true
		}
		dir := "grows without an upper bound"
		if !up {
			dir = "shrinks without a lower bound"
		}
		out = append(out, p.diag("overflow", pos,
			"%s-typed accumulation %s %s and can wrap %s; widen to int64 or bound it with an //inv: contract",
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

// reachLabel reports hot/sweep reachability with the witness provenance
// suffix used by the other call-graph analyzers.
func reachLabel(prog *Program, fn *types.Func) (string, bool) {
	if roots := prog.hotRootsOf(fn); len(roots) > 0 {
		return rootLabel(fn, roots), true
	}
	if roots := prog.sweepRootsOf(fn); len(roots) > 0 {
		return sweepRootLabel(fn, roots), true
	}
	return "", false
}

// seqArith flags wraparound-unsafe arithmetic on narrow sequence-like
// values in one reachable function.
func seqArith(p *Package, n *funcNode, label string) []Diagnostic {
	if strings.HasPrefix(n.fn.Name(), "Seq") {
		return nil // the modular helpers themselves
	}
	var out []Diagnostic
	seen := map[string]bool{}
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		be, ok := node.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.SUB:
		default:
			return true
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			bits, name, isSeq := seqNarrow(p, side)
			if !isSeq {
				continue
			}
			key := p.Fset.Position(be.OpPos).String()
			if seen[key] {
				break
			}
			seen[key] = true
			out = append(out, p.diag("overflow", be.OpPos,
				"%s %s on %d-bit sequence value %s wraps at the type boundary; use the modular-compare helpers (packet.SeqLT/SeqGEQ/SeqDelta) %s",
				opWord(be.Op), be.Op, bits, name, label))
			break
		}
		return true
	})
	return out
}

func opWord(op token.Token) string {
	if op == token.SUB {
		return "subtraction"
	}
	return "ordering comparison"
}

// seqNarrow reports whether e is a sub-64-bit integer whose name (its own
// identifier, selected field, or named type) reads as a sequence/ack
// number.
func seqNarrow(p *Package, e ast.Expr) (bits int, name string, ok bool) {
	t := p.Info.TypeOf(e)
	if t == nil {
		return 0, "", false
	}
	b, okB := t.Underlying().(*types.Basic)
	if !okB || b.Info()&types.IsInteger == 0 {
		return 0, "", false
	}
	switch b.Kind() {
	case types.Int32, types.Uint32:
		bits = 32
	case types.Int16, types.Uint16:
		bits = 16
	case types.Int8, types.Uint8:
		bits = 8
	default:
		return 0, "", false
	}
	looksSeq := func(s string) bool {
		s = strings.ToLower(s)
		return strings.Contains(s, "seq") || strings.Contains(s, "ack")
	}
	if named, okN := t.(*types.Named); okN && looksSeq(named.Obj().Name()) {
		return bits, types.ExprString(e), true
	}
	switch e := unparen(e).(type) {
	case *ast.Ident:
		if looksSeq(e.Name) {
			return bits, e.Name, true
		}
	case *ast.SelectorExpr:
		if looksSeq(e.Sel.Name) {
			return bits, types.ExprString(e), true
		}
	case *ast.CallExpr: // conversion: inspect the operand's spelling
		if len(e.Args) == 1 {
			if _, n, okS := seqNarrow(p, e.Args[0]); okS {
				return bits, n, true
			}
		}
	}
	return 0, "", false
}
