package lint

import (
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// newTestProto builds a two-state Event-shaped handle protocol for
// pure-lattice tests.
func newTestProto() *protocol {
	return &protocol{name: "H", states: []string{"armed", "dead"}}
}

// TestJoinEnvMergeAtJoin pins the merge semantics at a control-flow join:
// state sets union, ownership is sticky, and a variable tracked on only
// one incoming path keeps its states (a handle dead on that path is still
// possibly dead after the join).
func TestJoinEnvMergeAtJoin(t *testing.T) {
	pr := newTestProto()
	x := types.NewVar(token.NoPos, nil, "x", types.Typ[types.Int])
	y := types.NewVar(token.NoPos, nil, "y", types.Typ[types.Int])
	a := tsEnv{x: tsVal{proto: pr, states: pr.bit(0), owned: true}}
	b := tsEnv{
		x: tsVal{proto: pr, states: pr.bit(1), owned: false},
		y: tsVal{proto: pr, states: pr.bit(1), owned: true},
	}

	j := joinEnv(a, b)
	if got, want := j[x].states, pr.bit(0)|pr.bit(1); got != want {
		t.Errorf("joined states of x = %s, want %s", pr.setString(got), pr.setString(want))
	}
	if !j[x].owned {
		t.Error("ownership must be sticky under join: owned on one path means owned after the join")
	}
	yv, ok := j[y]
	if !ok {
		t.Fatal("variable tracked on only one path was dropped at the join; its dead state must survive")
	}
	if !yv.owned || yv.states != pr.bit(1) {
		t.Errorf("one-sided variable changed at join: %+v", yv)
	}

	if !equalEnv(j, joinEnv(b, a)) {
		t.Error("join is not commutative")
	}
	if equalEnv(a, j) {
		t.Error("join of strictly-larger input compared equal; the loop fixpoint would terminate early")
	}
	if !equalEnv(j, joinEnv(j, a)) {
		t.Error("re-joining an absorbed input changed the environment; the fixpoint would never settle")
	}
	if !equalEnv(a, joinEnv(a, nil)) || !equalEnv(a, joinEnv(nil, a)) {
		t.Error("nil must be the identity of join")
	}
}

// fixtureFindingLine locates the 1-based line of a unique marker in a
// fixture source file, so the tests below don't hard-code line numbers.
func fixtureFindingLine(t *testing.T, fixture, file, marker string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "src", fixture, file))
	if err != nil {
		t.Fatal(err)
	}
	line := 0
	for i, ln := range strings.Split(string(data), "\n") {
		if strings.Contains(ln, marker) {
			if line != 0 {
				t.Fatalf("marker %q is not unique in %s", marker, file)
			}
			line = i + 1
		}
	}
	if line == 0 {
		t.Fatalf("marker %q not found in %s", marker, file)
	}
	return line
}

func loadFixturePkg(t *testing.T, name string) *Package {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("internal/lint/testdata/src/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	return pkgs[0]
}

// TestMergeAtJoinFlagsFreedUse drives the interpreter end to end through
// MergeDeadUse in the handlestate fixture: the read after the conditional
// Cancel is only reachable as a may-finding through the branch join, while
// CancelEachPath (one Cancel on every path) must stay silent.
func TestMergeAtJoinFlagsFreedUse(t *testing.T) {
	p := loadFixturePkg(t, "handlestate")
	diags := runTypestate(p)
	wantLine := fixtureFindingLine(t, "handlestate", "handlestate.go", "// use after join")
	cleanLine := fixtureFindingLine(t, "handlestate", "handlestate.go", "// clean cancel")
	found := false
	for _, d := range diags {
		if d.Line == wantLine && strings.Contains(d.Message, "use of possibly-dead handle 'h'") {
			found = true
		}
		if d.Line == cleanLine {
			t.Errorf("cancel-once-per-path function flagged: %s", d.Message)
		}
	}
	if !found {
		t.Errorf("no dead-handle use reported at the post-join read (line %d); findings: %v", wantLine, diags)
	}
}

// TestLoopWideningFindsSecondPassOverwrite pins the loop fixpoint: the
// re-mint inside LoopRestart only overwrites a possibly-armed timer on the
// second pass, once the back edge has joined the first iteration's state
// back into the loop head.
func TestLoopWideningFindsSecondPassOverwrite(t *testing.T) {
	p := loadFixturePkg(t, "handlestate")
	diags := runTypestate(p)
	wantLine := fixtureFindingLine(t, "handlestate", "handlestate.go", "// second-pass overwrite")
	for _, d := range diags {
		if d.Line == wantLine && strings.Contains(d.Message, "assignment overwrites handle 't'") {
			return
		}
	}
	t.Errorf("loop fixpoint missed the second-pass overwrite at line %d; findings: %v", wantLine, diags)
}
