package lint

import (
	"go/types"
	"testing"
)

// loadCallgraphFixture loads the dedicated call-graph harness package with
// a fresh loader and returns it.
func loadCallgraphFixture(t *testing.T) *Package {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("internal/lint/testdata/callgraph")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	return pkgs[0]
}

// lookupFunc resolves a package-level function or a method named
// "Type.Method" from the fixture's scope.
func lookupFunc(t *testing.T, p *Package, name string) *types.Func {
	t.Helper()
	scope := p.Types.Scope()
	if recv, method, ok := splitMethod(name); ok {
		tn, _ := scope.Lookup(recv).(*types.TypeName)
		if tn == nil {
			t.Fatalf("no type %q in fixture", recv)
		}
		named, _ := tn.Type().(*types.Named)
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == method {
				return m
			}
		}
		t.Fatalf("no method %q on %q", method, recv)
	}
	fn, _ := scope.Lookup(name).(*types.Func)
	if fn == nil {
		t.Fatalf("no function %q in fixture", name)
	}
	return fn
}

func splitMethod(name string) (recv, method string, ok bool) {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i], name[i+1:], true
		}
	}
	return "", "", false
}

// TestHotReachability pins the closure: static calls and interface calls
// propagate hotness, dynamic function values and detached functions do not.
func TestHotReachability(t *testing.T) {
	p := loadCallgraphFixture(t)
	cases := []struct {
		fn  string
		hot bool
	}{
		{"Encode", true},         // the annotated root itself
		{"normalize", true},      // static hop
		{"die", true},            // called from normalize (terminal, still reachable)
		{"Doubler.Encode", true}, // interface expansion
		{"Halver.Encode", true},  // interface expansion
		{"half", true},           // static hop behind an interface edge
		{"Detached", false},      // never called from a root
		{"Indirect", false},      // only receives cold as a value
		{"cold", false},          // passed as a function value, never called statically
		{"Use", false},           // calls Indirect, but is itself not a root
	}
	for _, c := range cases {
		roots := p.Prog.hotRootsOf(lookupFunc(t, p, c.fn))
		if hot := len(roots) > 0; hot != c.hot {
			t.Errorf("hotRootsOf(%s) = %v, want hot %v", c.fn, roots, c.hot)
			continue
		}
		if c.hot && roots[0].Name() != "Encode" {
			t.Errorf("witness root of %s = %s, want Encode", c.fn, roots[0].FullName())
		}
	}
}

// TestTerminalDetection pins the panic-helper classification.
func TestTerminalDetection(t *testing.T) {
	p := loadCallgraphFixture(t)
	if !p.Prog.isTerminal(lookupFunc(t, p, "die")) {
		t.Error("die ends in panic but is not terminal")
	}
	if p.Prog.isTerminal(lookupFunc(t, p, "normalize")) {
		t.Error("normalize is terminal but returns normally")
	}
}

// TestHotNodesInOrder checks the per-package node listing is filtered to
// hot-reachable functions and sorted by declaration position.
func TestHotNodesInOrder(t *testing.T) {
	p := loadCallgraphFixture(t)
	var names []string
	for _, n := range p.Prog.hotNodesIn(p) {
		names = append(names, n.fn.Name())
	}
	// Declaration order: Doubler.Encode, Halver.Encode, half, the Encode
	// root, normalize, die.
	want := []string{"Encode", "Encode", "half", "Encode", "normalize", "die"}
	if len(names) != len(want) {
		t.Fatalf("hotNodesIn = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("hotNodesIn = %v, want %v", names, want)
		}
	}
}

// TestRootLabel checks the provenance rendering for a root, for a function
// reached by one root, and for a function shared by several roots.
func TestRootLabel(t *testing.T) {
	p := loadCallgraphFixture(t)
	root := lookupFunc(t, p, "Encode")
	if got := rootLabel(root, []*types.Func{root}); got != "(a //hot:path root)" {
		t.Errorf("rootLabel(root, [root]) = %q", got)
	}
	reached := lookupFunc(t, p, "half")
	got := rootLabel(reached, []*types.Func{root})
	if got != "(reachable from //hot:path root dctcpplus/internal/lint/testdata/callgraph.Encode)" {
		t.Errorf("rootLabel(reached, [root]) = %q", got)
	}
	other := lookupFunc(t, p, "Detached")
	got = rootLabel(reached, []*types.Func{root, other})
	want := "(reachable from //hot:path roots dctcpplus/internal/lint/testdata/callgraph.Encode, " +
		"dctcpplus/internal/lint/testdata/callgraph.Detached)"
	if got != want {
		t.Errorf("rootLabel(reached, [root, other]) = %q, want %q", got, want)
	}
}
