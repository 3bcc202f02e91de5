package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file implements the typestate analyzer and its engine: a //state:
// annotation grammar that declares handle protocols (named states plus
// function/method transitions), and the per-variable state-set lattice and
// straight-line transfer functions (assignments, calls, returns) that
// flow.go's walker carries through branches, loops and labels.
//
// Grammar. A type's doc comment declares a protocol:
//
//	//state: handle <state> [-> <state>]...
//
// The first state is the one mint functions produce by default; a state
// literally named "dead" is terminal. A handle protocol constrains
// transitions and dead-handle use; a discarded handle is not a leak.
//
// A function's doc comment declares transitions:
//
//	//state: mint [<state>]     result is a fresh protocol value
//	//state: kill <param>       the call ends the argument's life
//	//state: move <param> <from>[,<from>]... -> <to>
//
// Malformed directives are reported as typestate findings.
//
// Abstraction and soundness caveats (see DESIGN.md):
//
//   - Tracking is per local variable, seeded by mint-call results and
//     protocol-typed parameters (borrowed unless the function is the kill
//     or move primitive itself). Struct fields are not tracked: a field
//     store forgets a handle.
//   - Aliasing uses strong updates only: 'y := x' moves the tracking to y
//     and forgets x.
//   - Joins are state-set unions, so "dead on some path" findings are
//     path-sensitive may-analysis; the lattice is finite, so loop heads
//     need no widening beyond the union.
//   - A variable captured by a function literal is forgotten; literal
//     bodies are analyzed separately with borrowed parameters.
//   - Defers apply their effects at the defer statement, not at exit.

// Typestate proves the //state: handle protocols (sim.Event: armed ->
// dead; sim.Timer: disarmed <-> armed), over one run of the engine in this
// file per package (control flow is flow.go's walker). A recycled handle
// must never be touched after it may have fired — the freelist reuses the
// struct, so a stale Cancel would cancel somebody else's event. It
// reports:
//
//   - Cancel (or any //state: kill) on a possibly-dead handle, and a kill
//     of a parameter the function only borrows (the parameter must carry
//     an explicit //state: kill so every caller knows the handle dies),
//   - reads of a handle variable on a path where it already fired or was
//     cancelled,
//   - //state: move misuse: calling a transition such as Timer.Reset or
//     Timer.Stop when the receiver may be outside the transition's
//     declared source states,
//   - overwriting a handle variable while it may still be armed (the old
//     handle becomes uncancellable),
//   - the clear-field-first rule from internal/sim/scheduler.go: when a
//     struct field of handle type is armed with a callback, the resolved
//     callback body must set that field to nil as its very first
//     statement, before any re-arm or cancel,
//   - malformed //state: directives (unknown verbs, unknown states, names
//     that match no parameter, protocols over the state-count cap).
//
// Packets are not its business: their exactly-once release is checked at
// run time, by the pool's double-free poison and the oracle's pool ledger.
func Typestate() *Analyzer {
	return &Analyzer{
		Name: "typestate",
		Doc:  "//state: handle protocols: dead-handle use, transition misuse, armed-handle overwrite, callback clear-first",
		Run:  runTypestate,
	}
}

// runTypestate runs the engine over every function of p — the per-function
// abstract interpretation, then the callback clear-first rule — and adds
// the //state: table's directive errors for p.
func runTypestate(p *Package) []Diagnostic {
	prog := p.Prog
	if prog == nil {
		return nil
	}
	tab := prog.typestates()
	out := append([]Diagnostic(nil), tab.errs[p]...)
	for _, n := range prog.order {
		if n.pkg != p {
			continue
		}
		f := &tsFlow{pkg: p, tab: tab, seen: make(map[Diagnostic]bool)}
		f.analyzeDecl(n.decl, tab.funcs[n.fn])
		out = append(out, f.out...)
	}
	return append(out, clearFirstPass(p, prog, tab)...)
}

// protocol is one //state:-declared handle protocol on a named type.
type protocol struct {
	name   string // the type name, e.g. "Event"
	named  *types.Named
	states []string
	pos    token.Pos
}

// maxProtoStates caps declared states so a state set fits its bit mask
// with room to spare.
const maxProtoStates = 16

func (pr *protocol) bit(i int) uint32 { return 1 << uint(i) }

func (pr *protocol) allMask() uint32 { return 1<<uint(len(pr.states)) - 1 }

// deadMask returns the bits of terminal states (named "dead").
func (pr *protocol) deadMask() uint32 {
	var m uint32
	for i, s := range pr.states {
		if s == "dead" {
			m |= pr.bit(i)
		}
	}
	return m
}

func (pr *protocol) liveMask() uint32 { return pr.allMask() &^ pr.deadMask() }

func (pr *protocol) stateIndex(name string) int {
	for i, s := range pr.states {
		if s == name {
			return i
		}
	}
	return -1
}

// setString renders a state mask for diagnostics ("dead", "armed|dead").
func (pr *protocol) setString(mask uint32) string {
	var parts []string
	for i, s := range pr.states {
		if mask&pr.bit(i) != 0 {
			parts = append(parts, s)
		}
	}
	if len(parts) == 0 {
		return "(none)"
	}
	return strings.Join(parts, "|")
}

// dispKind classifies what a call does to one argument.
type dispKind int

const (
	dispNone dispKind = iota
	dispKill
	dispMove
)

// paramDisp is the declared disposition of one parameter (or receiver).
type paramDisp struct {
	kind dispKind
	from uint32 // move: accepted source states
	to   uint32 // move: resulting state
}

// funcStateAnn is the parsed //state: contract of one function.
type funcStateAnn struct {
	mint      bool
	mintState uint32
	mintProto *protocol
	recv      paramDisp
	params    map[int]paramDisp
}

// stateTable holds every parsed protocol and function contract in the
// module, plus the malformed-directive findings (attributed to the
// declaring package).
type stateTable struct {
	protos map[*types.Named]*protocol
	funcs  map[*types.Func]*funcStateAnn
	errs   map[*Package][]Diagnostic
}

// typestates returns the module's //state: table, building it on first
// use (cached on the Program, invalidated with the call graph).
func (prog *Program) typestates() *stateTable {
	if prog.stateTable != nil {
		return prog.stateTable
	}
	t := &stateTable{
		protos: make(map[*types.Named]*protocol),
		funcs:  make(map[*types.Func]*funcStateAnn),
		errs:   make(map[*Package][]Diagnostic),
	}
	// Pass 1: protocols, so function contracts can resolve state names.
	for _, p := range prog.pkgs {
		t.collectProtocols(p)
	}
	// Pass 2: function contracts.
	for _, p := range prog.pkgs {
		t.collectFuncs(p)
	}
	prog.stateTable = t
	return t
}

func (t *stateTable) errf(p *Package, pos token.Pos, format string, args ...any) {
	t.errs[p] = append(t.errs[p], p.diag("typestate", pos, format, args...))
}

// collectProtocols parses type-level //state: declarations in p.
func (t *stateTable) collectProtocols(p *Package) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil && len(gd.Specs) == 1 {
					doc = gd.Doc
				}
				for _, c := range directiveLines("state:", doc) {
					t.addProtocol(p, ts, c)
				}
			}
		}
	}
}

func (t *stateTable) addProtocol(p *Package, ts *ast.TypeSpec, c directiveLine) {
	fields := strings.Fields(c.payload)
	if len(fields) == 0 {
		t.errf(p, c.pos, "malformed //state: directive: empty")
		return
	}
	if fields[0] != "handle" {
		t.errf(p, c.pos, "malformed //state: directive on type %s: want 'handle', got %q", ts.Name.Name, fields[0])
		return
	}
	states, ok := parseStateChain(strings.Join(fields[1:], " "))
	if !ok || len(states) == 0 {
		t.errf(p, c.pos, "malformed //state: directive on type %s: want '//state: handle <state> [-> <state>]...'", ts.Name.Name)
		return
	}
	if len(states) > maxProtoStates {
		t.errf(p, c.pos, "//state: protocol on type %s declares %d states (max %d)", ts.Name.Name, len(states), maxProtoStates)
		return
	}
	tn, ok := p.Info.Defs[ts.Name].(*types.TypeName)
	if !ok {
		return
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		t.errf(p, c.pos, "//state: protocol on %s: not a named type", ts.Name.Name)
		return
	}
	t.protos[named] = &protocol{
		name:   ts.Name.Name,
		named:  named,
		states: states,
		pos:    c.pos,
	}
}

// parseStateChain parses "a -> b -> c" (also accepting "a->b") into state
// names.
func parseStateChain(s string) ([]string, bool) {
	var out []string
	for _, part := range strings.Split(s, "->") {
		name := strings.TrimSpace(part)
		if name == "" || strings.ContainsAny(name, " \t") {
			return nil, false
		}
		out = append(out, name)
	}
	return out, true
}

// protoOf returns the protocol of a *T value type, or nil.
func (t *stateTable) protoOf(typ types.Type) *protocol {
	ptr, ok := typ.(*types.Pointer)
	if !ok {
		return nil
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return nil
	}
	return t.protos[named]
}

// collectFuncs parses function-level //state: contracts in p.
func (t *stateTable) collectFuncs(p *Package) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			lines := directiveLines("state:", fd.Doc)
			if len(lines) == 0 {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			t.addFuncAnn(p, fn, fd.Recv, fd.Type, lines)
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

func (t *stateTable) addFuncAnn(p *Package, fn *types.Func, recv *ast.FieldList, ftype *ast.FuncType, lines []directiveLine) {
	ann := t.funcs[fn]
	if ann == nil {
		ann = &funcStateAnn{params: make(map[int]paramDisp)}
		t.funcs[fn] = ann
	}
	params := flattenParams(p, ftype.Params)
	recvName := ""
	var recvType types.Type
	if recv != nil && len(recv.List) == 1 {
		if len(recv.List[0].Names) == 1 {
			recvName = recv.List[0].Names[0].Name
		}
		if v, ok := p.Info.Defs[recv.List[0].Names[0]].(*types.Var); recvName != "" && ok {
			recvType = v.Type()
		}
	}
	// setDisp installs a disposition for the named parameter or receiver,
	// reporting the error cases inline.
	setDisp := func(c directiveLine, name string, d paramDisp) (proto *protocol) {
		if name == recvName && recvName != "" {
			proto = t.protoOf(recvType)
			if proto == nil {
				t.errf(p, c.pos, "//state: directive on %s: receiver %q has no protocol type", fn.Name(), name)
				return nil
			}
			ann.recv = d
			return proto
		}
		for i, prm := range params {
			if prm.name != name {
				continue
			}
			proto = t.protoOf(prm.typ)
			if proto == nil {
				t.errf(p, c.pos, "//state: directive on %s: parameter %q has no protocol type", fn.Name(), name)
				return nil
			}
			ann.params[i] = d
			return proto
		}
		t.errf(p, c.pos, "//state: directive on %s names unknown parameter %q", fn.Name(), name)
		return nil
	}
	for _, c := range lines {
		fields := strings.Fields(c.payload)
		if len(fields) == 0 {
			t.errf(p, c.pos, "malformed //state: directive: empty")
			continue
		}
		switch fields[0] {
		case "mint":
			sig := fn.Type().(*types.Signature)
			if sig.Results().Len() == 0 {
				t.errf(p, c.pos, "//state: mint on %s: function has no results", fn.Name())
				continue
			}
			proto := t.protoOf(sig.Results().At(0).Type())
			if proto == nil {
				t.errf(p, c.pos, "//state: mint on %s: first result is not a protocol-typed pointer", fn.Name())
				continue
			}
			state := 0
			if len(fields) > 1 {
				state = proto.stateIndex(fields[1])
				if state < 0 {
					t.errf(p, c.pos, "//state: mint on %s: %s has no state %q", fn.Name(), proto.name, fields[1])
					continue
				}
			}
			ann.mint = true
			ann.mintProto = proto
			ann.mintState = proto.bit(state)
		case "kill":
			if len(fields) != 2 {
				t.errf(p, c.pos, "malformed //state: kill on %s: want '//state: kill <param>'", fn.Name())
				continue
			}
			setDisp(c, fields[1], paramDisp{kind: dispKill})
		case "move":
			rest := strings.Join(fields[2:], " ")
			halves := strings.Split(rest, "->")
			if len(fields) < 3 || len(halves) != 2 {
				t.errf(p, c.pos, "malformed //state: move on %s: want '//state: move <param> <from>[,<from>] -> <to>'", fn.Name())
				continue
			}
			proto := setDisp(c, fields[1], paramDisp{kind: dispMove})
			if proto == nil {
				continue
			}
			var from uint32
			bad := false
			for _, s := range strings.Split(halves[0], ",") {
				i := proto.stateIndex(strings.TrimSpace(s))
				if i < 0 {
					t.errf(p, c.pos, "//state: move on %s: %s has no state %q", fn.Name(), proto.name, strings.TrimSpace(s))
					bad = true
					break
				}
				from |= proto.bit(i)
			}
			toIdx := proto.stateIndex(strings.TrimSpace(halves[1]))
			if toIdx < 0 && !bad {
				t.errf(p, c.pos, "//state: move on %s: %s has no state %q", fn.Name(), proto.name, strings.TrimSpace(halves[1]))
				bad = true
			}
			if bad {
				continue
			}
			setDisp(c, fields[1], paramDisp{kind: dispMove, from: from, to: proto.bit(toIdx)})
		default:
			t.errf(p, c.pos, "malformed //state: directive on %s: unknown verb %q (want mint, kill or move)", fn.Name(), fields[0])
		}
	}
}

// ---------------------------------------------------------------------------
// Abstract interpreter

// tsVal is the abstract state of one tracked variable: the protocol it
// obeys, the set of states it may occupy, and whether this function owns
// it (a mint result) or only borrows it (a parameter).
type tsVal struct {
	proto  *protocol
	states uint32
	owned  bool
}

// tsEnv maps tracked variables to their abstract state. Values are stored
// by value so cloning a branch environment is a plain map copy.
type tsEnv map[*types.Var]tsVal

func (e tsEnv) clone() tsEnv {
	out := make(tsEnv, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

// join unions two branch environments: a variable present in both unions
// its state sets; a variable present on one path keeps its states (a dead
// handle on that path is still dead after the join).
func joinEnv(a, b tsEnv) tsEnv {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := a.clone()
	for _, v := range sortedEnvVars(b) {
		bv := b[v]
		if av, ok := out[v]; ok {
			av.states |= bv.states
			av.owned = av.owned || bv.owned
			out[v] = av
		} else {
			out[v] = bv
		}
	}
	return out
}

// sortedEnvVars returns env's keys in deterministic (position, name)
// order, so joins and diagnostics never depend on map order.
func sortedEnvVars(env tsEnv) []*types.Var {
	vars := make([]*types.Var, 0, len(env))
	for v := range env {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool {
		if vars[i].Pos() != vars[j].Pos() {
			return vars[i].Pos() < vars[j].Pos()
		}
		return vars[i].Name() < vars[j].Name()
	})
	return vars
}

func equalEnv(a, b tsEnv) bool {
	if len(a) != len(b) {
		return false
	}
	for _, v := range sortedEnvVars(a) {
		av := a[v]
		bv, ok := b[v]
		if !ok || av.states != bv.states || av.owned != bv.owned {
			return false
		}
	}
	return true
}

// tsFlow interprets one declared function (and, recursively, the function
// literals it contains, each with a fresh environment).
type tsFlow struct {
	pkg  *Package
	tab  *stateTable
	out  []Diagnostic
	seen map[Diagnostic]bool

	declName string // for messages: "Stop" or "function literal"
	lits     []*ast.FuncLit
}

func (f *tsFlow) report(pos token.Pos, format string, args ...any) {
	d := f.pkg.diag("typestate", pos, format, args...)
	if f.seen[d] {
		return
	}
	f.seen[d] = true
	f.out = append(f.out, d)
}

// analyzeDecl interprets one function declaration, then every function
// literal discovered inside it.
func (f *tsFlow) analyzeDecl(decl *ast.FuncDecl, ann *funcStateAnn) {
	f.declName = decl.Name.Name
	env := make(tsEnv)
	if decl.Recv != nil && len(decl.Recv.List) == 1 && len(decl.Recv.List[0].Names) == 1 {
		recvDisp := paramDisp{}
		if ann != nil {
			recvDisp = ann.recv
		}
		f.seedParam(env, decl.Recv.List[0].Names[0], recvDisp)
	}
	f.seedParams(env, decl.Type.Params, ann)
	f.runBody(env, decl.Body)
	f.drainLits()
}

// drainLits analyzes the function literals collected so far (literals may
// nest, so the worklist can grow while draining).
func (f *tsFlow) drainLits() {
	for len(f.lits) > 0 {
		lit := f.lits[0]
		f.lits = f.lits[1:]
		f.declName = "function literal"
		env := make(tsEnv)
		f.seedParams(env, lit.Type.Params, nil)
		f.runBody(env, lit.Body)
	}
}

// seedParams seeds the environment from a parameter list: kill/move
// parameters are the primitive's own subject (not tracked in its body),
// and unannotated protocol-typed parameters are borrowed.
func (f *tsFlow) seedParams(env tsEnv, params *ast.FieldList, ann *funcStateAnn) {
	if params == nil {
		return
	}
	idx := 0
	for _, field := range params.List {
		names := field.Names
		if len(names) == 0 {
			idx++
			continue
		}
		for _, name := range names {
			disp := paramDisp{}
			if ann != nil {
				disp = ann.params[idx]
			}
			f.seedParam(env, name, disp)
			idx++
		}
	}
}

func (f *tsFlow) seedParam(env tsEnv, name *ast.Ident, disp paramDisp) {
	v, ok := f.pkg.Info.Defs[name].(*types.Var)
	if !ok {
		return
	}
	proto := f.tab.protoOf(v.Type())
	if proto == nil || disp.kind != dispNone {
		// A kill or move function is the transition primitive; its body
		// implements the protocol rather than obeying it.
		return
	}
	env[v] = tsVal{proto: proto, states: proto.liveMask()}
}

// runBody interprets a body. A goto abandons the walk (flow.go), so
// nothing past it is reported.
func (f *tsFlow) runBody(env tsEnv, body *ast.BlockStmt) {
	if body != nil {
		walkFlow[tsEnv](f, body, env)
	}
}

// The flowDomain hooks. Environments are plain maps, joined by union
// (joinEnv); the lattice is finite, so widen has nothing to add.

func (f *tsFlow) clone(env tsEnv) tsEnv            { return env.clone() }
func (f *tsFlow) join(a, b tsEnv) tsEnv            { return joinEnv(a, b) }
func (f *tsFlow) widen(_, next tsEnv, _ int) tsEnv { return next }
func (f *tsFlow) equal(a, b tsEnv) bool            { return equalEnv(a, b) }
func (f *tsFlow) terminal(call *ast.CallExpr) bool { return f.pkg.isTerminalCall(call) }
func (f *tsFlow) bindRange(s *ast.RangeStmt, env tsEnv) tsEnv {
	f.untrackAssigned(env, s.Key)
	f.untrackAssigned(env, s.Value)
	return env
}

// transfer interprets one straight-line statement or bare expression.
func (f *tsFlow) transfer(n ast.Node, env tsEnv) tsEnv {
	switch st := n.(type) {
	case ast.Expr:
		f.expr(env, st)
	case *ast.ExprStmt:
		f.expr(env, st.X)
	case *ast.AssignStmt:
		return f.assign(env, st)
	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		if ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						f.bind(env, name, vs.Values[i])
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, res := range st.Results {
			f.expr(env, res)
		}
	case *ast.DeferStmt:
		// Approximation: a deferred kill applies at the defer site.
		f.expr(env, st.Call)
	case *ast.GoStmt:
		f.expr(env, st.Call)
	case *ast.IncDecStmt:
		f.expr(env, st.X)
	case *ast.SendStmt:
		f.expr(env, st.Chan)
		f.expr(env, st.Value)
	case *ast.EmptyStmt:
	case ast.Stmt:
		f.stmtUses(env, st)
	}
	return env
}

// stmtUses conservatively scans an unmodeled statement for uses of
// tracked variables.
func (f *tsFlow) stmtUses(env tsEnv, s ast.Stmt) {
	ast.Inspect(s, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			f.captureLit(env, e)
			return false
		case *ast.Ident:
			f.useIdent(env, e)
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// Assignments and expressions

// assign interprets an assignment statement.
func (f *tsFlow) assign(env tsEnv, st *ast.AssignStmt) tsEnv {
	if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
		// Compound ops (+=, -=...) read and write non-protocol values.
		for _, e := range st.Lhs {
			f.expr(env, e)
		}
		for _, e := range st.Rhs {
			f.expr(env, e)
		}
		return env
	}
	if len(st.Lhs) == len(st.Rhs) {
		for i := range st.Lhs {
			f.assignOne(env, st.Lhs[i], st.Rhs[i])
		}
		return env
	}
	// Multi-value form (x, y := f()): no protocol function returns
	// multiple values in this module; scan and untrack conservatively.
	for _, e := range st.Rhs {
		f.expr(env, e)
	}
	for _, e := range st.Lhs {
		f.untrackAssigned(env, e)
	}
	return env
}

// assignOne interprets 'lhs = rhs' for one pair. A store into a field,
// slot or pointed-to location forgets the handle: fields are not tracked.
func (f *tsFlow) assignOne(env tsEnv, lhs, rhs ast.Expr) {
	val, handled := f.valueOf(env, rhs)
	if !handled {
		f.expr(env, rhs)
	}
	switch l := unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		v, _ := f.pkg.Info.Defs[l].(*types.Var)
		if v == nil {
			v, _ = f.pkg.Info.Uses[l].(*types.Var)
		}
		if v == nil {
			return
		}
		f.checkOverwrite(env, v, l.Pos())
		if val != nil {
			env[v] = *val
		} else {
			delete(env, v)
		}
	case *ast.SelectorExpr:
		f.expr(env, l.X)
	case *ast.IndexExpr:
		f.expr(env, l.X)
		f.expr(env, l.Index)
	case *ast.StarExpr:
		f.expr(env, l.X)
	default:
		f.expr(env, lhs)
	}
}

// checkOverwrite reports an assignment clobbering a handle that is off its
// quiescent first state: the in-flight handle is orphaned mid-protocol.
func (f *tsFlow) checkOverwrite(env tsEnv, v *types.Var, pos token.Pos) {
	val, ok := env[v]
	if !ok {
		return
	}
	quiescent := val.proto.bit(0) | val.proto.deadMask()
	if val.states&^quiescent != 0 {
		f.report(pos,
			"assignment overwrites handle '%s' while it may still be %s: the in-flight handle is orphaned mid-protocol",
			v.Name(), val.proto.setString(val.states&^quiescent))
	}
}

// bind handles 'var x = rhs' declarations.
func (f *tsFlow) bind(env tsEnv, name *ast.Ident, rhs ast.Expr) {
	val, handled := f.valueOf(env, rhs)
	if !handled {
		f.expr(env, rhs)
	}
	v, ok := f.pkg.Info.Defs[name].(*types.Var)
	if !ok {
		return
	}
	if val != nil {
		env[v] = *val
	}
}

// valueOf classifies rhs as a protocol-tracked value: a mint call's
// result, or a tracked variable, whose tracking moves to the assignee
// (strong update: 'y := x' forgets x). The second result reports whether
// rhs was fully processed here (side effects applied); when false the
// caller must scan rhs itself.
func (f *tsFlow) valueOf(env tsEnv, rhs ast.Expr) (*tsVal, bool) {
	switch e := unparen(rhs).(type) {
	case *ast.CallExpr:
		callee, _ := f.pkg.calleeOf(e)
		ann := f.tab.funcs[callee]
		f.call(env, e, callee, ann)
		if ann != nil && ann.mint {
			return &tsVal{proto: ann.mintProto, states: ann.mintState, owned: true}, true
		}
		return nil, true
	case *ast.Ident:
		v, _ := f.pkg.Info.Uses[e].(*types.Var)
		if v == nil {
			return nil, false
		}
		if _, ok := env[v]; !ok {
			return nil, false
		}
		f.useIdent(env, e)
		val := env[v] // useIdent may have healed the state set
		delete(env, v)
		return &val, true
	}
	return nil, false
}

// expr scans an expression, applying call contracts and use checks.
func (f *tsFlow) expr(env tsEnv, e ast.Expr) {
	if e == nil {
		return
	}
	switch ex := unparen(e).(type) {
	case *ast.CallExpr:
		callee, _ := f.pkg.calleeOf(ex)
		f.call(env, ex, callee, f.tab.funcs[callee])
	case *ast.Ident:
		f.useIdent(env, ex)
	case *ast.FuncLit:
		f.captureLit(env, ex)
	case *ast.SelectorExpr:
		f.expr(env, ex.X)
	case *ast.StarExpr:
		f.expr(env, ex.X)
	case *ast.UnaryExpr:
		f.expr(env, ex.X)
	case *ast.BinaryExpr:
		f.expr(env, ex.X)
		f.expr(env, ex.Y)
	case *ast.IndexExpr:
		f.expr(env, ex.X)
		f.expr(env, ex.Index)
	case *ast.SliceExpr:
		f.expr(env, ex.X)
		f.expr(env, ex.Low)
		f.expr(env, ex.High)
		f.expr(env, ex.Max)
	case *ast.TypeAssertExpr:
		f.expr(env, ex.X)
	case *ast.CompositeLit:
		for _, el := range ex.Elts {
			f.expr(env, el)
		}
	case *ast.KeyValueExpr:
		f.expr(env, ex.Value)
	}
}

// useIdent checks one variable read against its abstract state: touching
// a possibly-dead handle is the core rule. After reporting, the dead bits
// are healed so one mistake does not cascade down the function.
func (f *tsFlow) useIdent(env tsEnv, id *ast.Ident) {
	v, _ := f.pkg.Info.Uses[id].(*types.Var)
	if v == nil {
		return
	}
	val, ok := env[v]
	if !ok {
		return
	}
	gone := val.states & val.proto.deadMask()
	if gone == 0 {
		return
	}
	f.report(id.Pos(),
		"use of possibly-dead handle '%s': %s reaches this point %s on some path (a recycled handle must not be touched)",
		id.Name, val.proto.name, val.proto.setString(gone))
	val.states = val.states&^gone | val.proto.liveMask()
	if val.states == 0 {
		val.states = val.proto.bit(0)
	}
	env[v] = val
}

// captureLit forgets variables captured by a function literal (they
// escape the tracked flow) and queues the literal body for its own pass.
func (f *tsFlow) captureLit(env tsEnv, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := f.pkg.Info.Uses[id].(*types.Var); ok {
			delete(env, v)
		}
		return true
	})
	f.lits = append(f.lits, lit)
}

// untrackAssigned forgets a variable written by an unmodeled binding
// (range vars, multi-value assignment).
func (f *tsFlow) untrackAssigned(env tsEnv, e ast.Expr) {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return
	}
	v, _ := f.pkg.Info.Defs[id].(*types.Var)
	if v == nil {
		v, _ = f.pkg.Info.Uses[id].(*types.Var)
	}
	if v != nil {
		f.checkOverwrite(env, v, e.Pos())
		delete(env, v)
	}
}

// call applies one call's //state: contract to its receiver and
// arguments.
func (f *tsFlow) call(env tsEnv, call *ast.CallExpr, callee *types.Func, ann *funcStateAnn) {
	calleeName := "this call"
	if callee != nil {
		calleeName = callee.Name()
	}
	// Receiver disposition for method calls.
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		recvDisp := paramDisp{}
		if ann != nil {
			recvDisp = ann.recv
		}
		if id, ok := unparen(sel.X).(*ast.Ident); ok {
			f.applyDisp(env, id, recvDisp, calleeName)
		} else {
			f.expr(env, sel.X)
		}
	} else {
		f.expr(env, call.Fun)
	}
	for i, arg := range call.Args {
		disp := paramDisp{}
		if ann != nil {
			disp = ann.params[i]
		}
		if id, ok := unparen(arg).(*ast.Ident); ok {
			f.applyDisp(env, id, disp, calleeName)
			continue
		}
		f.expr(env, arg)
	}
}

// applyDisp applies one parameter disposition to an identifier argument;
// an untracked one is only a use.
func (f *tsFlow) applyDisp(env tsEnv, id *ast.Ident, disp paramDisp, calleeName string) {
	v, _ := f.pkg.Info.Uses[id].(*types.Var)
	val, tracked := env[v]
	if v == nil || !tracked || disp.kind == dispNone {
		f.useIdent(env, id)
		return
	}
	gone := val.states & val.proto.deadMask()
	if disp.kind == dispKill {
		if gone != 0 {
			f.report(id.Pos(),
				"'%s' passed to %s while possibly dead: handle %s already reached %s on a path to here (a fired or cancelled handle must not be released again)",
				id.Name, calleeName, val.proto.name, val.proto.setString(gone))
		}
		if !val.owned {
			f.report(id.Pos(),
				"parameter '%s' is borrowed, but %s kills it: declare '//state: kill %s' on %s's signature",
				id.Name, calleeName, id.Name, f.declName)
		}
		val.states = val.proto.deadMask()
	} else {
		if bad := val.states &^ (disp.from | gone); bad != 0 {
			f.report(id.Pos(),
				"%s requires %s '%s' in state %s, but it may be %s here",
				calleeName, val.proto.name, id.Name, val.proto.setString(disp.from), val.proto.setString(bad))
		}
		if gone != 0 {
			f.report(id.Pos(),
				"%s called on '%s' after it was already %s", calleeName, id.Name, val.proto.setString(gone))
		}
		val.states = disp.to
	}
	env[v] = val
}

// ---------------------------------------------------------------------------
// Callback clear-first rule

// clearFirstPass enforces the scheduler-handle contract module-wide: when
// a mint call arms a struct field of a handle protocol that has a dead
// state (the Event shape), and the callback argument can be resolved, the
// callback's first statement must clear that same field — the idiom the
// Event handle-lifetime contract is built on. Unresolvable callbacks
// (plain function values assigned elsewhere than this package) are
// skipped.
func clearFirstPass(p *Package, prog *Program, tab *stateTable) []Diagnostic {
	lits := litFieldMap(p)
	var out []Diagnostic
	report := func(pos token.Pos, fieldName string) {
		out = append(out, p.diag("typestate", pos,
			"callback arming field '%s' does not clear it first: the handle is dead once the callback runs, so the callback's first statement must set '%s = nil' before any re-arm or cancel",
			fieldName, fieldName))
	}
	inspect := func(body *ast.BlockStmt) {
		ast.Inspect(body, func(n ast.Node) bool {
			st, ok := n.(*ast.AssignStmt)
			if !ok || st.Tok != token.ASSIGN || len(st.Lhs) != 1 || len(st.Rhs) != 1 {
				return true
			}
			sel, ok := unparen(st.Lhs[0]).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			field := fieldVarOf(p, sel)
			if field == nil {
				return true
			}
			proto := tab.protoOf(field.Type())
			if proto == nil || proto.deadMask() == 0 {
				return true
			}
			call, ok := unparen(st.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			callee, _ := p.calleeOf(call)
			ann := tab.funcs[callee]
			if ann == nil || !ann.mint || ann.mintProto != proto {
				return true
			}
			for _, arg := range call.Args {
				t := p.Info.TypeOf(arg)
				if t == nil {
					continue
				}
				if _, ok := t.Underlying().(*types.Signature); !ok {
					continue
				}
				body := resolveCallback(p, prog, lits, arg)
				if body == nil {
					continue // documented hole: unresolvable function value
				}
				if !clearsFieldFirst(p, body, field) {
					report(st.Pos(), field.Name())
				}
			}
			return true
		})
	}
	for _, n := range prog.order {
		if n.pkg == p {
			inspect(n.decl.Body)
		}
	}
	return out
}

// litFieldMap collects 'x.field = func(){...}' assignments in the
// package, so once-bound callback fields (Sender.pumpFn) resolve to their
// literal bodies.
func litFieldMap(p *Package) map[*types.Var]*ast.FuncLit {
	out := make(map[*types.Var]*ast.FuncLit)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.AssignStmt)
			if !ok || st.Tok != token.ASSIGN || len(st.Lhs) != 1 || len(st.Rhs) != 1 {
				return true
			}
			sel, ok := unparen(st.Lhs[0]).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			lit, ok := unparen(st.Rhs[0]).(*ast.FuncLit)
			if !ok {
				return true
			}
			if v := fieldVarOf(p, sel); v != nil {
				out[v] = lit
			}
			return true
		})
	}
	return out
}

// fieldVarOf resolves a selector to the struct field it denotes, or nil.
func fieldVarOf(p *Package, sel *ast.SelectorExpr) *types.Var {
	if s, ok := p.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	return nil
}

// resolveCallback maps a callback argument to the function body that will
// run: an inline literal, a declared function (sim.Timer's static expire),
// a method value, or a field holding a literal bound in this package.
func resolveCallback(p *Package, prog *Program, lits map[*types.Var]*ast.FuncLit, arg ast.Expr) *ast.BlockStmt {
	switch a := unparen(arg).(type) {
	case *ast.FuncLit:
		return a.Body
	case *ast.Ident:
		if fn, ok := p.Info.Uses[a].(*types.Func); ok {
			if n := prog.nodes[fn]; n != nil {
				return n.decl.Body
			}
		}
	case *ast.SelectorExpr:
		if s, ok := p.Info.Selections[a]; ok {
			switch s.Kind() {
			case types.MethodVal:
				if fn, ok := s.Obj().(*types.Func); ok {
					if n := prog.nodes[fn]; n != nil {
						return n.decl.Body
					}
				}
			case types.FieldVal:
				if v, ok := s.Obj().(*types.Var); ok {
					if lit := lits[v]; lit != nil {
						return lit.Body
					}
				}
			}
		}
	}
	return nil
}

// clearsFieldFirst reports whether body's first statement assigns nil to
// the given field.
func clearsFieldFirst(p *Package, body *ast.BlockStmt, field *types.Var) bool {
	if body == nil || len(body.List) == 0 {
		return false
	}
	st, ok := body.List[0].(*ast.AssignStmt)
	if !ok || st.Tok != token.ASSIGN || len(st.Lhs) != 1 || len(st.Rhs) != 1 {
		return false
	}
	sel, ok := unparen(st.Lhs[0]).(*ast.SelectorExpr)
	if !ok || fieldVarOf(p, sel) != field {
		return false
	}
	id, ok := unparen(st.Rhs[0]).(*ast.Ident)
	return ok && id.Name == "nil"
}
