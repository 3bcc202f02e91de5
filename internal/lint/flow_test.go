package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"testing"
)

// toyState is the walker test's abstract state: which single-letter marker
// calls (a(), b(), ...) may have run, and which must have run, on the paths
// reaching a point. Join is union of may and intersection of must, so the
// pair tells "some path" from "every path" — enough to pin where the walker
// forks, joins and ends paths.
type toyState struct{ may, must uint32 }

func (s toyState) with(marker byte) toyState {
	bit := uint32(1) << (marker - 'a')
	return toyState{s.may | bit, s.must | bit}
}

func letters(mask uint32) string {
	var out []byte
	for c := byte('a'); c <= 'z'; c++ {
		if mask&(1<<(c-'a')) != 0 {
			out = append(out, c)
		}
	}
	return string(out)
}

// toyDomain records every marker it transfers and every widen pass number.
type toyDomain struct {
	transferred []byte
	widens      []int
}

func (d *toyDomain) clone(s toyState) toyState { return s }
func (d *toyDomain) join(a, b toyState) toyState {
	return toyState{a.may | b.may, a.must & b.must}
}
func (d *toyDomain) widen(_, next toyState, n int) toyState {
	d.widens = append(d.widens, n)
	return next
}
func (d *toyDomain) equal(a, b toyState) bool                        { return a == b }
func (d *toyDomain) bindRange(_ *ast.RangeStmt, s toyState) toyState { return s.with('r') }

func (d *toyDomain) transfer(n ast.Node, s toyState) toyState {
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && len(id.Name) == 1 {
				d.transferred = append(d.transferred, id.Name[0])
				s = s.with(id.Name[0])
			}
		}
		return true
	})
	return s
}

func (d *toyDomain) terminal(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		return fun.Sel.Name == "Failf"
	}
	return false
}

// TestFlowWalker states the control-flow semantics once, over tiny bodies:
// may/must are the markers on some/every path falling off the end of the
// body, dead means no path does.
func TestFlowWalker(t *testing.T) {
	cases := []struct {
		name, body string
		may, must  string
		dead       bool
	}{
		{"straight line", `a(); b()`, "ab", "ab", false},
		{"if without else joins the skipped path", `if c { a() }; b()`, "ab", "b", false},
		{"if/else joins both arms", `if c { a() } else { b() }`, "ab", "", false},
		{"if init and condition are evaluated before the fork", `if x := a(); b(x) { c() }`, "abc", "ab", false},
		{"return ends the path", `if c { a(); return }; b()`, "b", "b", false},
		{"every path returns", `if c { return } else { return }; a()`, "", "", true},
		{"panic cuts the path", `if c { a(); panic("x") }; b()`, "b", "b", false},
		{"terminal helper cuts the path", `if c { a(); check.Failf("x") }; b()`, "b", "b", false},

		{"switch without default lets entry flow past", `switch x { case 1: a() }`, "a", "", false},
		{"switch with default runs exactly one clause", `switch x { case 1: a(); default: a() }`, "a", "a", false},
		{"tag and case expressions are evaluated on entry", `switch a() { case b(): c() }`, "abc", "ab", false},
		{"fallthrough enters the next clause", `switch x { case 1: a(); fallthrough; case 2: b(); default: b() }`, "ab", "b", false},
		{"fallthrough does not reach the join itself", `switch x { case 1: a(); fallthrough; case 2: return; default: }`, "", "", false},
		{"type switch", `switch v := x.(type) { case int: a(); default: _ = v; b() }`, "ab", "", false},
		{"all clauses return", `switch x { case 1: return; default: return }; a()`, "", "", true},
		{"break in switch leaves the switch only", `for { switch x { case 1: break }; a(); break }`, "a", "a", false},
		{"break in loop leaves the loop", `for { if c { break }; a() }; b()`, "ab", "b", false},

		{"select runs exactly one clause", `select { case <-c: a(); case d <- b(): a() }`, "ab", "a", false},
		{"select default is one more clause", `select { case <-c: a(); default: b() }`, "ab", "", false},
		{"empty select never exits", `select {}; a()`, "", "", true},

		{"for {} without break never exits", `for { a() }; b()`, "", "", true},
		{"for with condition may run zero times", `for c { a() }; b()`, "ab", "b", false},
		{"for init, condition and post", `for a(); b(); c() { d() }`, "abcd", "ab", false},
		{"continue skips the rest and reaches post", `for ; x; b() { if c { continue }; a() }`, "ab", "", false},
		{"range binds per pass and may run zero times", `for range xs { a() }; b()`, "abr", "b", false},
		{"labeled break leaves both loops", `outer: for { for { a(); break outer }; b() }`, "a", "a", false},
		{"unlabeled break leaves the inner loop only", `for { for { a(); break }; b(); break }`, "ab", "ab", false},
		{"labeled continue skips the outer body", `outer: for x { for { continue outer }; a() }; b()`, "b", "b", false},
		{"labeled break out of a switch in a loop", `loop: for { switch x { case 1: a(); break loop }; b() }`, "ab", "a", false},
		{"break to a labeled switch", `sw: switch x { case 1: for { a(); break sw }; default: b() }`, "ab", "", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := &toyDomain{}
			out, live, abandoned := walkFlow[toyState](d, parseBody(t, c.body), toyState{})
			if abandoned {
				t.Fatal("walk abandoned without a goto")
			}
			if live == c.dead {
				t.Fatalf("live = %v, want %v", live, !c.dead)
			}
			if live && (letters(out.may) != c.may || letters(out.must) != c.must) {
				t.Errorf("exit may=%q must=%q, want may=%q must=%q", letters(out.may), letters(out.must), c.may, c.must)
			}
		})
	}
}

// TestFlowWalkerLoopPasses pins the fixed-point protocol: widen sees n == 0
// on entry and n == k after the k-th pass, so a domain that widens "from
// the second pass" keys on n >= 2; a body that changes nothing after its
// first pass settles on the second, and a loop without a back edge is
// interpreted once.
func TestFlowWalkerLoopPasses(t *testing.T) {
	for _, c := range []struct {
		body string
		want []int
	}{
		{`for c { a() }`, []int{0, 1, 2}},
		{`for c { }`, []int{0, 1}},
		{`for c { a(); return }`, []int{0}},
		{`for c { for d { a() } }`, []int{0, 0, 1, 2, 1, 0, 1, 2}},
	} {
		d := &toyDomain{}
		walkFlow[toyState](d, parseBody(t, c.body), toyState{})
		if !reflect.DeepEqual(d.widens, c.want) {
			t.Errorf("%s: widen passes %v, want %v", c.body, d.widens, c.want)
		}
	}
}

// TestFlowWalkerGoto pins the goto policy: the first goto abandons the
// walk — nothing after it is interpreted on any path, no path is live, and
// the caller is told.
func TestFlowWalkerGoto(t *testing.T) {
	d := &toyDomain{}
	_, live, abandoned := walkFlow[toyState](d, parseBody(t, `a(); if c { goto done } else { b() }; e(); done: f()`), toyState{})
	if !abandoned || live {
		t.Errorf("abandoned=%v live=%v, want abandoned and dead", abandoned, live)
	}
	if got := string(d.transferred); got != "a" {
		t.Errorf("transferred %q, want only what precedes the goto", got)
	}
}

func parseBody(t *testing.T, body string) *ast.BlockStmt {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "toy.go", "package p\nfunc f() {\n"+body+"\n}", parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return f.Decls[0].(*ast.FuncDecl).Body
}
