package lint

import (
	"go/ast"
	"go/token"
)

// This file is the one structured-control-flow interpreter of the package.
// An engine — the typestate engine (typestate.go) is the one client, beside
// the toy domain of flow_test.go — supplies a lattice and the transfer
// functions of straight-line code; every rule about where paths fork, meet,
// loop and end lives here, once.
//
// Semantics, in one place (flow_test.go pins each with a toy domain):
//
//   - Paths. A state is either live or dead; dead paths contribute nothing
//     to a join. return, a terminal call (flowDomain.terminal: panic,
//     check.Failf), break and continue end the path they are on.
//   - if joins its two arms; a branch condition is evaluated, never
//     used to refine the state.
//   - switch (expression or type) evaluates every case expression on the
//     entry state in source order, runs each clause from a clone of it,
//     and joins the live clause exits; only a switch without a default
//     also lets the entry state flow past. A trailing fallthrough hands
//     the clause's exit to the next clause's entry instead of the join.
//     select runs exactly one clause (its comm statement, then its body);
//     an empty select never exits.
//   - break targets the innermost switch, select or loop; continue the
//     innermost loop; a labeled break/continue the statement carrying that
//     label, however many constructs lie between.
//   - Loops iterate the body from the loop-head state to a fixed point.
//     widen(prev, next, n) is called with n == 0 once on entry (prev ==
//     next == the entry state: drop what cannot survive a back edge) and
//     with n == k on join(head, back edge) after the k-th pass (continue
//     states and the post statement included); iteration stops when
//     equal(head, widened) or after flowPassCap passes. The exit state is
//     the head after one more evaluation of the condition (a range loop:
//     the head itself; a condition-less for: nothing) joined with the
//     breaks of the final pass, so `for {}` without a break is non-exiting.
//   - goto is not modelled. The first goto abandons the walk: its path and
//     every path not yet interpreted end there, and abandoned is set so
//     the engine can discount what an incomplete walk would otherwise
//     claim. Nothing in the module uses goto.

// flowDomain is the abstract domain an engine plugs into the walker. States
// are passed linearly: a hook may update its state argument in place and
// return it, and the walker clones before every fork. join must leave a
// intact (b is never used again).
type flowDomain[S any] interface {
	clone(st S) S
	join(a, b S) S
	widen(prev, next S, n int) S
	equal(a, b S) bool
	// transfer applies one straight-line node: a simple statement
	// (assignment, declaration, expression, inc/dec, send, defer, go,
	// return) or a bare expression the walker evaluates on the way to a
	// branch (condition, switch tag, case expression, range operand).
	transfer(n ast.Node, st S) S
	// bindRange assigns the iteration variables of s at the top of a pass.
	bindRange(s *ast.RangeStmt, st S) S
	// terminal reports whether call never returns.
	terminal(call *ast.CallExpr) bool
}

// flowPassCap bounds the per-loop fixed-point iteration. The typestate
// lattice is finite, so real loops settle in two or three passes; the cap
// is a safety net.
const flowPassCap = 8

// flowTarget collects the states leaving through break and continue for
// one enclosing switch, select or loop.
type flowTarget[S any] struct {
	label  string
	loop   bool
	breaks []S
	conts  []S
}

type flowWalker[S any] struct {
	d         flowDomain[S]
	targets   []*flowTarget[S] // innermost last
	abandoned bool
}

// walkFlow interprets body from st. It returns the state falling off the
// end of the body, whether any path does, and whether a goto abandoned the
// walk.
func walkFlow[S any](d flowDomain[S], body *ast.BlockStmt, st S) (out S, live, abandoned bool) {
	w := &flowWalker[S]{d: d}
	out, live = w.list(body.List, st)
	return out, live && !w.abandoned, w.abandoned
}

// merge joins two possibly-dead paths.
func (w *flowWalker[S]) merge(a S, aLive bool, b S, bLive bool) (S, bool) {
	switch {
	case !aLive:
		return b, bLive
	case !bLive:
		return a, true
	}
	return w.d.join(a, b), true
}

func (w *flowWalker[S]) mergeAll(a S, live bool, more []S) (S, bool) {
	for _, b := range more {
		a, live = w.merge(a, live, b, true)
	}
	return a, live
}

func (w *flowWalker[S]) list(list []ast.Stmt, st S) (S, bool) {
	for _, s := range list {
		var live bool
		if st, live = w.stmt(s, st, ""); !live {
			return st, false
		}
	}
	return st, true
}

// transfer applies an optional straight-line node, unless the walk was
// abandoned.
func (w *flowWalker[S]) transfer(n ast.Node, st S) S {
	if n == nil || w.abandoned {
		return st
	}
	return w.d.transfer(n, st)
}

// stmt interprets one statement; label is the label it carries, if any.
func (w *flowWalker[S]) stmt(s ast.Stmt, st S, label string) (S, bool) {
	if w.abandoned {
		return st, false
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.list(s.List, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st, s.Label.Name)
	case *ast.IfStmt:
		st = w.transfer(s.Cond, w.transfer(s.Init, st))
		then, thenLive := w.list(s.Body.List, w.d.clone(st))
		els, elsLive := st, true
		if s.Else != nil {
			els, elsLive = w.stmt(s.Else, els, "")
		}
		return w.merge(then, thenLive, els, elsLive)
	case *ast.SwitchStmt:
		return w.clauses(s.Body, w.transfer(s.Tag, w.transfer(s.Init, st)), label, false)
	case *ast.TypeSwitchStmt:
		return w.clauses(s.Body, w.transfer(s.Assign, w.transfer(s.Init, st)), label, false)
	case *ast.SelectStmt:
		return w.clauses(s.Body, st, label, true)
	case *ast.ForStmt:
		return w.loop(label, w.transfer(s.Init, st), s.Cond, s.Post, nil, s.Body)
	case *ast.RangeStmt:
		return w.loop(label, w.transfer(s.X, st), nil, nil, s, s.Body)
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK, token.CONTINUE:
			switch t := w.target(s); {
			case t == nil:
			case s.Tok == token.BREAK:
				t.breaks = append(t.breaks, st)
			default:
				t.conts = append(t.conts, st)
			}
			return st, false
		case token.GOTO:
			w.abandoned = true
			return st, false
		}
		return st, true // fallthrough: consumed by clauses
	case *ast.ReturnStmt:
		return w.transfer(s, st), false
	case *ast.ExprStmt:
		st = w.transfer(s, st)
		call, ok := unparen(s.X).(*ast.CallExpr)
		return st, !(ok && w.d.terminal(call))
	default:
		return w.transfer(s, st), true
	}
}

// target resolves the construct a break or continue leaves.
func (w *flowWalker[S]) target(s *ast.BranchStmt) *flowTarget[S] {
	for i := len(w.targets) - 1; i >= 0; i-- {
		t := w.targets[i]
		if s.Label != nil {
			if t.label == s.Label.Name {
				return t
			}
		} else if t.loop || s.Tok == token.BREAK {
			return t
		}
	}
	return nil
}

func (w *flowWalker[S]) push(label string, loop bool) *flowTarget[S] {
	t := &flowTarget[S]{label: label, loop: loop}
	w.targets = append(w.targets, t)
	return t
}

func (w *flowWalker[S]) pop() { w.targets = w.targets[:len(w.targets)-1] }

// clauses interprets the body of a switch, type switch or select.
func (w *flowWalker[S]) clauses(body *ast.BlockStmt, st S, label string, isSelect bool) (S, bool) {
	t := w.push(label, false)
	var out, fall S
	outLive, fallLive := false, false
	exhaustive := isSelect
	for _, c := range body.List {
		var cs S
		var stmts []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				st = w.transfer(e, st)
			}
			exhaustive = exhaustive || c.List == nil
			cs, stmts = w.d.clone(st), c.Body
		case *ast.CommClause:
			cs, stmts = w.transfer(c.Comm, w.d.clone(st)), c.Body
		}
		cs, _ = w.merge(cs, true, fall, fallLive)
		falls := false
		if n := len(stmts); n > 0 {
			if br, ok := stmts[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				stmts, falls = stmts[:n-1], true
			}
		}
		cs, live := w.list(stmts, cs)
		if falls {
			fall, fallLive = cs, live
		} else {
			fallLive = false
			out, outLive = w.merge(out, outLive, cs, live)
		}
	}
	if !exhaustive {
		out, outLive = w.merge(out, outLive, st, true)
	}
	w.pop()
	return w.mergeAll(out, outLive, t.breaks)
}

// loop interprets a for loop (cond and post may be nil) or, with rng set,
// a range loop, from the state after its init statement or range operand.
func (w *flowWalker[S]) loop(label string, st S, cond ast.Expr, post ast.Stmt, rng *ast.RangeStmt, body *ast.BlockStmt) (S, bool) {
	head := w.d.widen(st, st, 0)
	var t *flowTarget[S]
	for n := 1; ; n++ {
		t = w.push(label, true)
		it := w.transfer(cond, w.d.clone(head))
		if rng != nil {
			it = w.d.bindRange(rng, it)
		}
		it, live := w.list(body.List, it)
		w.pop()
		if it, live = w.mergeAll(it, live, t.conts); !live {
			break // no back edge: head already is the invariant
		}
		next := w.d.widen(head, w.d.join(head, w.transfer(post, it)), n)
		done := w.d.equal(head, next) || n >= flowPassCap
		if head = next; done {
			break
		}
	}
	return w.mergeAll(w.transfer(cond, head), cond != nil || rng != nil, t.breaks)
}
