package lint

import (
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// newTestProto builds a two-state pooled protocol for pure-lattice tests.
func newTestProto() *protocol {
	return &protocol{name: "Buf", kind: "pooled", states: []string{"owned", "freed"}}
}

// TestJoinEnvMergeAtJoin pins the merge semantics at a control-flow join:
// state sets union, ownership is sticky, and a variable tracked on only
// one incoming path keeps its obligation (a leak on that path is still a
// leak).
func TestJoinEnvMergeAtJoin(t *testing.T) {
	pr := newTestProto()
	x := types.NewVar(token.NoPos, nil, "x", types.Typ[types.Int])
	y := types.NewVar(token.NoPos, nil, "y", types.Typ[types.Int])
	a := tsEnv{x: tsVal{proto: pr, states: pr.bit(0), owned: true}}
	b := tsEnv{
		x: tsVal{proto: pr, states: pr.bit(1), owned: false, tainted: true},
		y: tsVal{proto: pr, states: pr.bit(0), owned: true},
	}

	j := joinEnv(a, b)
	if got, want := j[x].states, pr.bit(0)|pr.bit(1); got != want {
		t.Errorf("joined states of x = %s, want %s", pr.setString(got), pr.setString(want))
	}
	if !j[x].owned {
		t.Error("ownership must be sticky under join: owned on one path means owned after the join")
	}
	if !j[x].tainted {
		t.Error("taint must be sticky under join, or one use-after-free would cascade into exit-leak noise")
	}
	yv, ok := j[y]
	if !ok {
		t.Fatal("variable tracked on only one path was dropped at the join; its leak obligation must survive")
	}
	if !yv.owned || yv.states != pr.bit(0) {
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
// MergeFreedUse in the poollife fixture: the read after the conditional
// free is only reachable as a may-finding through the branch join, while
// BothFree (release on every path) must stay silent.
func TestMergeAtJoinFlagsFreedUse(t *testing.T) {
	p := loadFixturePkg(t, "poollife")
	diags := runTypestate(p)
	wantLine := fixtureFindingLine(t, "poollife", "poollife.go", "n := b.n")
	found := false
	for _, d := range diags {
		if d.Line == wantLine && strings.Contains(d.Message, "use of 'b' after it was freed") {
			found = true
		}
		if strings.Contains(d.Message, "BothFree") {
			t.Errorf("release-on-every-path function flagged: %s", d.Message)
		}
	}
	if !found {
		t.Errorf("no use-after-free reported at the post-join read (line %d); findings: %v", wantLine, diags)
	}
}

// TestLoopWideningFindsSecondPassOverwrite pins the loop fixpoint: the
// re-mint inside LoopOverwrite only overwrites a still-owned value on the
// second pass, once the back edge has joined the first iteration's state
// back into the loop head.
func TestLoopWideningFindsSecondPassOverwrite(t *testing.T) {
	p := loadFixturePkg(t, "poollife")
	diags := runTypestate(p)
	wantLine := fixtureFindingLine(t, "poollife", "poollife.go", "b = p.Get()")
	for _, d := range diags {
		if d.Line == wantLine && strings.Contains(d.Message, "assignment overwrites 'b'") {
			return
		}
	}
	t.Errorf("loop fixpoint missed the second-pass overwrite leak at line %d; findings: %v", wantLine, diags)
}
