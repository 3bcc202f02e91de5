package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
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
// Grammar (decimal literals only; one //inv: line may carry several
// clauses, and a field may carry several //inv: lines):
//
//	contract := clause { "&&" clause }
//	clause   := operand cmp operand { cmp operand }   // chains: 0 <= x <= 1
//	cmp      := "<" | "<=" | ">" | ">="
//	operand  := number | path
//	path     := ident { "." ident }
//
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

// invLexer tokenizes a contract payload.
type invLexer struct {
	s   string
	pos int
}

type invTokKind int

const (
	invEOF invTokKind = iota
	invIdent
	invNumber
	invDot
	invAndAnd
	invCmp // text holds the operator
)

type invTok struct {
	kind invTokKind
	text string
	off  int
}

func (l *invLexer) next() (invTok, error) {
	for l.pos < len(l.s) && (l.s[l.pos] == ' ' || l.s[l.pos] == '\t') {
		l.pos++
	}
	if l.pos >= len(l.s) {
		return invTok{kind: invEOF, off: l.pos}, nil
	}
	start := l.pos
	c := l.s[l.pos]
	switch {
	case c == '.':
		l.pos++
		return invTok{kind: invDot, text: ".", off: start}, nil
	case c == '&':
		if l.pos+1 < len(l.s) && l.s[l.pos+1] == '&' {
			l.pos += 2
			return invTok{kind: invAndAnd, text: "&&", off: start}, nil
		}
		return invTok{}, &invError{start, "single '&' (want \"&&\")"}
	case c == '<' || c == '>':
		op := string(c)
		l.pos++
		if l.pos < len(l.s) && l.s[l.pos] == '=' {
			op += "="
			l.pos++
		}
		return invTok{kind: invCmp, text: op, off: start}, nil
	case c == '=':
		return invTok{}, &invError{start, "'==' and '=' are not contract operators (declare a range with <= and >=)"}
	case c >= '0' && c <= '9' || c == '-' || c == '+':
		l.pos++
		for l.pos < len(l.s) {
			d := l.s[l.pos]
			if d >= '0' && d <= '9' || d == '.' || d == 'e' || d == 'E' {
				l.pos++
				continue
			}
			if (d == '+' || d == '-') && (l.s[l.pos-1] == 'e' || l.s[l.pos-1] == 'E') {
				l.pos++
				continue
			}
			break
		}
		return invTok{kind: invNumber, text: l.s[start:l.pos], off: start}, nil
	case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
		l.pos++
		for l.pos < len(l.s) {
			d := l.s[l.pos]
			if d == '_' || d >= 'a' && d <= 'z' || d >= 'A' && d <= 'Z' || d >= '0' && d <= '9' {
				l.pos++
				continue
			}
			break
		}
		return invTok{kind: invIdent, text: l.s[start:l.pos], off: start}, nil
	default:
		return invTok{}, &invError{start, fmt.Sprintf("unexpected character %q", c)}
	}
}

// invParser is a one-token-lookahead recursive-descent parser.
type invParser struct {
	lex invLexer
	tok invTok
}

func (p *invParser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// parseInv parses one //inv: payload into its comparison clauses.
func parseInv(s string) ([]invClause, error) {
	p := &invParser{lex: invLexer{s: s}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.tok.kind == invEOF {
		return nil, &invError{p.tok.off, "empty contract"}
	}
	var out []invClause
	for {
		clauses, err := p.parseChain()
		if err != nil {
			return nil, err
		}
		out = append(out, clauses...)
		if p.tok.kind == invEOF {
			return out, nil
		}
		if p.tok.kind != invAndAnd {
			return nil, &invError{p.tok.off, fmt.Sprintf("unexpected %q (want \"&&\" or end of contract)", p.tok.text)}
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
}

// parseChain parses operand cmp operand { cmp operand } into one clause
// per adjacent pair. Chains must keep one direction (0 <= x <= 1 is fine,
// 0 <= x >= 1 is an error).
func (p *invParser) parseChain() ([]invClause, error) {
	ops := []invOperand{}
	first, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	ops = append(ops, first)
	var cmps []invTok
	for p.tok.kind == invCmp {
		cmps = append(cmps, p.tok)
		if err := p.advance(); err != nil {
			return nil, err
		}
		o, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		ops = append(ops, o)
	}
	if len(cmps) == 0 {
		return nil, &invError{p.tok.off, "operand without a comparison"}
	}
	dir := cmps[0].text[0]
	var out []invClause
	for i, c := range cmps {
		if c.text[0] != dir {
			return nil, &invError{c.off, "mixed comparison directions in one chain"}
		}
		out = append(out, invClause{
			lhs: ops[i],
			rhs: ops[i+1],
			op:  cmpToken(c.text),
			src: renderOperand(ops[i]) + " " + c.text + " " + renderOperand(ops[i+1]),
		})
	}
	return out, nil
}

func cmpToken(s string) token.Token {
	switch s {
	case "<":
		return token.LSS
	case "<=":
		return token.LEQ
	case ">":
		return token.GTR
	default:
		return token.GEQ
	}
}

func (p *invParser) parseOperand() (invOperand, error) {
	//lint:allow exhaustive any other token here is a parse error in user input, reported to the annotation author instead of panicking
	switch p.tok.kind {
	case invNumber:
		v, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return invOperand{}, &invError{p.tok.off, fmt.Sprintf("bad numeric literal %q (decimal literals only)", p.tok.text)}
		}
		o := invOperand{isNum: true, num: v, off: p.tok.off}
		return o, p.advance()
	case invIdent:
		o := invOperand{path: []string{p.tok.text}, off: p.tok.off}
		if err := p.advance(); err != nil {
			return invOperand{}, err
		}
		for p.tok.kind == invDot {
			if err := p.advance(); err != nil {
				return invOperand{}, err
			}
			if p.tok.kind != invIdent {
				return invOperand{}, &invError{p.tok.off, "expected identifier after '.'"}
			}
			o.path = append(o.path, p.tok.text)
			if err := p.advance(); err != nil {
				return invOperand{}, err
			}
		}
		return o, nil
	default:
		return invOperand{}, &invError{p.tok.off, fmt.Sprintf("expected a number or identifier, got %q", p.tok.text)}
	}
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
	prog.build()
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
