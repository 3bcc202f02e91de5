package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"math"
	"slices"
	"strconv"
	"strings"
)

// This file implements the //inv: range-contract annotation layer: the
// grammar, its parser, and the whole-program table of field contracts.
//
// A contract is a conjunction of comparisons declaring the range of one
// numeric struct field:
//
//	// alpha is the congestion-extent estimate.
//	//inv: 0 <= alpha && alpha <= 1
//	alpha float64
//
// It is a declaration, not a proof obligation: the range is enforced at run
// time by the field's twin — an always-on internal/check assertion, a
// constructor that rejects the violating config, or a sampler in
// TestContractsHoldAtRuntime, which fails for any contract without one —
// and trusted by overflow, which exempts an accumulation whose growing side
// the contract bounds.
//
// A contract is a Go expression: go/parser reads it, and the tree must
// then have this shape (one //inv: line may carry several clauses, and a
// field may carry several //inv: lines):
//
//	contract := clause { "&&" clause }
//	clause   := operand cmp operand { cmp operand }   // chains: 0 <= x <= 1
//	cmp      := "<" | "<=" | ">" | ">="
//	operand  := [ "-" | "+" ] number | path
//	path     := ident { "." ident }
//
// where number is a Go integer or floating-point literal in float64 range.
// Exactly one side of every comparison must be the field's own name. The
// other side is the bound — a numeric literal, or a symbolic path resolving
// through sibling fields ("cfg.BufferBytes" names the sibling field cfg,
// then its BufferBytes field). Strict integer bounds normalize away (x > 0
// becomes x >= 1).
//
// Malformed contracts are themselves diagnostics (analyzer "overflow"),
// never panics: the parser reports the byte offset of the first error, a
// property the fuzz test pins.

// invOperand is one parsed comparison operand: a number or a dotted path.
type invOperand struct {
	isNum bool
	num   float64
	path  []string
	off   int // byte offset in the contract text, for error positions
}

// invClause is one parsed comparison, already split out of && conjunctions
// and chained comparisons.
type invClause struct {
	lhs, rhs invOperand
	op       token.Token // LSS, LEQ, GTR, GEQ
	src      string      // rendered clause text for diagnostics
}

// invError is a contract parse error carrying the byte offset of the
// offending token within the //inv: payload.
type invError struct {
	off int
	msg string
}

func (e *invError) Error() string { return fmt.Sprintf("offset %d: %s", e.off, e.msg) }

// parseInv parses one //inv: payload into its comparison clauses. The
// payload is a Go expression, so go/parser reads it; the tree is then held
// to the contract grammar. Go parses 0 <= x <= 1 as (0 <= x) <= 1, so both
// a conjunction and a chain are the left spine of their operators.
func parseInv(s string) ([]invClause, error) {
	if strings.TrimSpace(s) == "" {
		return nil, &invError{len(s), "empty contract"}
	}
	fset := token.NewFileSet()
	e, err := parser.ParseExprFrom(fset, "", s, 0)
	if err != nil {
		var list scanner.ErrorList
		if errors.As(err, &list) && len(list) > 0 {
			return nil, &invError{list[0].Pos.Offset, list[0].Msg}
		}
		return nil, &invError{0, err.Error()}
	}
	errAt := func(pos token.Pos, format string, args ...any) error {
		return &invError{fset.Position(pos).Offset, fmt.Sprintf(format, args...)}
	}
	operand := func(e ast.Expr) (invOperand, error) {
		o := invOperand{off: fset.Position(e.Pos()).Offset}
		if path, ok := dottedPath(e); ok {
			o.path = path
			return o, nil
		}
		lit, neg := e, false
		if u, ok := e.(*ast.UnaryExpr); ok && (u.Op == token.SUB || u.Op == token.ADD) {
			lit, neg = u.X, u.Op == token.SUB
		}
		bl, ok := lit.(*ast.BasicLit)
		if !ok || bl.Kind != token.INT && bl.Kind != token.FLOAT {
			if b, ok := e.(*ast.BinaryExpr); ok {
				return o, errAt(b.OpPos, "%q is not a contract operator (want &&, <, <=, > or >=)", b.Op)
			}
			return o, errAt(e.Pos(), "expected a number or a dotted path")
		}
		v, _ := constant.Float64Val(constant.MakeFromLiteral(bl.Value, bl.Kind, 0))
		if math.IsInf(v, 0) {
			return o, errAt(bl.Pos(), "bad numeric literal %q (out of float64 range)", bl.Value)
		}
		if neg {
			v = -v
		}
		o.isNum, o.num = true, v
		return o, nil
	}
	first, ands := leftSpine(e, func(op token.Token) bool { return op == token.LAND })
	conjuncts := []ast.Expr{first}
	for _, b := range ands {
		conjuncts = append(conjuncts, b.Y)
	}
	var out []invClause
	for _, cj := range conjuncts {
		base, cmps := leftSpine(cj, func(op token.Token) bool {
			return op == token.LSS || op == token.LEQ || op == token.GTR || op == token.GEQ
		})
		lhs, err := operand(base)
		if err != nil {
			return nil, err
		}
		if len(cmps) == 0 {
			return nil, errAt(cj.End(), "operand without a comparison")
		}
		// A chain keeps one direction: 0 <= x <= 1 is fine, 0 <= x >= 1 is
		// an error.
		upper := cmps[0].Op == token.LSS || cmps[0].Op == token.LEQ
		for _, b := range cmps {
			if (b.Op == token.LSS || b.Op == token.LEQ) != upper {
				return nil, errAt(b.OpPos, "mixed comparison directions in one chain")
			}
			rhs, err := operand(b.Y)
			if err != nil {
				return nil, err
			}
			out = append(out, invClause{
				lhs: lhs,
				rhs: rhs,
				op:  b.Op,
				src: renderOperand(lhs) + " " + b.Op.String() + " " + renderOperand(rhs),
			})
			lhs = rhs
		}
	}
	return out, nil
}

// leftSpine unwinds e = ((base op y1) op y2)... over the operators op
// accepts, returning base and the operator nodes in source order.
func leftSpine(e ast.Expr, op func(token.Token) bool) (ast.Expr, []*ast.BinaryExpr) {
	var spine []*ast.BinaryExpr
	for {
		b, ok := e.(*ast.BinaryExpr)
		if !ok || !op(b.Op) {
			slices.Reverse(spine)
			return e, spine
		}
		spine = append(spine, b)
		e = b.X
	}
}

// dottedPath returns the names of ident { "." ident }.
func dottedPath(e ast.Expr) ([]string, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		return []string{x.Name}, true
	case *ast.SelectorExpr:
		if head, ok := dottedPath(x.X); ok {
			return append(head, x.Sel.Name), true
		}
	}
	return nil, false
}

func renderOperand(o invOperand) string {
	if o.isNum {
		return strconv.FormatFloat(o.num, 'g', -1, 64)
	}
	return strings.Join(o.path, ".")
}

// atom is one normalized contract bound: subject <= bound (upper) or
// subject >= bound (lower). The bound is numeric, or symbolic: a path
// through sibling fields of the subject that resolved to a numeric field.
// Strict integer bounds are normalized to inclusive ones; a strict float
// bound is kept as its closure (g > 0 declares lo = 0).
type atom struct {
	upper    bool
	symbolic bool
	num      float64 // the bound, unless symbolic
}

// fieldContract is the parsed, resolved contract of one annotated struct
// field.
type fieldContract struct {
	field *types.Var
	owner *types.TypeName // the declaring named struct type
	atoms []atom
}

// bounds reports whether the contract bounds the subject on the given
// side, numerically or symbolically.
func (fc *fieldContract) bounds(upper bool) bool {
	for _, a := range fc.atoms {
		if a.upper == upper {
			return true
		}
	}
	return false
}

// contractTable is the whole-program contract index, built once per
// Program and invalidated when the graph rebuilds.
type contractTable struct {
	fields map[*types.Var]*fieldContract
	// errs are parse/resolution failures, reported by overflow in the
	// package where the annotation lives.
	errs map[*Package][]Diagnostic
}

// contracts returns the program's contract table, building it on first
// use.
func (prog *Program) contracts() *contractTable {
	if prog.contractTable != nil {
		return prog.contractTable
	}
	t := &contractTable{
		fields: make(map[*types.Var]*fieldContract),
		errs:   make(map[*Package][]Diagnostic),
	}
	for _, p := range prog.pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						if st, ok := ts.Type.(*ast.StructType); ok {
							t.collectStruct(p, ts, st)
						}
					}
				}
			}
		}
	}
	prog.contractTable = t
	return t
}

func (t *contractTable) errf(p *Package, pos token.Pos, format string, args ...any) {
	t.errs[p] = append(t.errs[p], p.diag("overflow", pos, format, args...))
}

// collectStruct parses the //inv: annotations on one struct type's fields.
func (t *contractTable) collectStruct(p *Package, ts *ast.TypeSpec, st *ast.StructType) {
	tn, _ := p.Info.Defs[ts.Name].(*types.TypeName)
	if tn == nil {
		return
	}
	owner, _ := tn.Type().Underlying().(*types.Struct)
	for _, field := range st.Fields.List {
		lines := directiveLines("inv:", field.Doc, field.Comment)
		if len(lines) == 0 {
			continue
		}
		pos := lines[0].pos
		if len(field.Names) != 1 {
			t.errf(p, pos, "//inv: contract requires exactly one field name per declaration")
			continue
		}
		name := field.Names[0]
		fv, ok := p.Info.Defs[name].(*types.Var)
		if !ok {
			continue
		}
		if !isNumericType(fv.Type()) {
			t.errf(p, pos, "//inv: contract on non-numeric field %s", name.Name)
			continue
		}
		fc := &fieldContract{field: fv, owner: tn}
		for _, line := range lines {
			clauses, err := parseInv(line.payload)
			if err != nil {
				t.errf(p, pos, "malformed //inv: contract on %s: %v", name.Name, err)
				continue
			}
			atoms, err := bindAtoms(clauses, fv, owner)
			if err != nil {
				t.errf(p, pos, "//inv: contract on %s: %v", name.Name, err)
				continue
			}
			fc.atoms = append(fc.atoms, atoms...)
		}
		if len(fc.atoms) > 0 {
			t.fields[fv] = fc
		}
	}
}

// bindAtoms normalizes parsed clauses against the subject field: its name
// must appear alone on exactly one side, the other side becomes the bound —
// a number, or a path through sibling fields of owner. Integer strict
// bounds are normalized to inclusive ones.
func bindAtoms(clauses []invClause, subject *types.Var, owner *types.Struct) ([]atom, error) {
	isSubj := func(o invOperand) bool {
		return !o.isNum && len(o.path) == 1 && o.path[0] == subject.Name()
	}
	var out []atom
	for _, cl := range clauses {
		if isSubj(cl.lhs) == isSubj(cl.rhs) {
			return nil, fmt.Errorf("clause %q must have %s on exactly one side", cl.src, subject.Name())
		}
		bound := cl.rhs
		upper := cl.op == token.LSS || cl.op == token.LEQ
		if isSubj(cl.rhs) {
			// bound op subject  ==  subject flip(op) bound.
			bound, upper = cl.lhs, !upper
		}
		a := atom{upper: upper, symbolic: !bound.isNum, num: bound.num}
		if a.symbolic {
			if err := resolveFieldPath(owner, bound.path); err != nil {
				return nil, fmt.Errorf("clause %q: %v", cl.src, err)
			}
		} else if strict := cl.op == token.LSS || cl.op == token.GTR; strict && isIntegerType(subject.Type()) {
			// x > 0 is x >= 1 for integers; x < 10 is x <= 9.
			if upper {
				a.num--
			} else {
				a.num++
			}
		}
		out = append(out, a)
	}
	return out, nil
}

// resolveFieldPath checks that path names a numeric field: path[0] a field
// of st, the rest through nested (possibly named or pointer) struct types.
func resolveFieldPath(st *types.Struct, path []string) error {
	for i, name := range path {
		var next *types.Var
		for j := 0; j < st.NumFields(); j++ {
			if st.Field(j).Name() == name {
				next = st.Field(j)
				break
			}
		}
		if next == nil {
			return fmt.Errorf("no field %q", strings.Join(path[:i+1], "."))
		}
		if i == len(path)-1 {
			if !isNumericType(next.Type()) {
				return fmt.Errorf("bound %q is not numeric", strings.Join(path, "."))
			}
			break
		}
		t := next.Type()
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		nst, ok := t.Underlying().(*types.Struct)
		if !ok {
			return fmt.Errorf("%q is not a struct", strings.Join(path[:i+1], "."))
		}
		st = nst
	}
	return nil
}

// isNumericType reports whether t is numeric.
func isNumericType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}

// isIntegerType reports whether t is an integer (of any width).
func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
