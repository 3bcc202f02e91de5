package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestStaleAllowAudit pins the allowlist audit on its fixture: the audit
// reports the rotted directive, and a partial load — which is what loading
// one fixture directory is — does not run it.
func TestStaleAllowAudit(t *testing.T) {
	pkgs := []*Package{loadFixturePkg(t, "staleallow")}
	if diags := Run(pkgs, All()); len(diags) != 0 {
		t.Errorf("partial load ran the audit: %v", diags)
	}
	diags := runSuite(pkgs, All(), true)
	if len(diags) != 1 || diags[0].Analyzer != "staleallow" ||
		!strings.Contains(diags[0].Message, "stale //lint:allow floateq directive") {
		t.Errorf("audit over the fixture = %v, want exactly the stale floateq directive", diags)
	}
}

// TestRunAuditsOnlyWholeModuleLoads pins how Run derives the audit, on the
// throwaway module under testdata/stalemod: its stale directive is reported
// after Load("./...") and ignored after a load of just its package, where
// the finding it excuses might be rooted in a package that was never loaded.
func TestRunAuditsOnlyWholeModuleLoads(t *testing.T) {
	for _, c := range []struct {
		pattern string
		want    int
	}{{"./a", 0}, {"./a/...", 0}, {"./...", 1}, {"...", 1}} {
		loader, err := NewLoader(filepath.Join("testdata", "stalemod"))
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := loader.Load(c.pattern)
		if err != nil {
			t.Fatal(err)
		}
		diags := Run(pkgs, All())
		if len(diags) != c.want || (c.want == 1 && diags[0].Analyzer != "staleallow") {
			t.Errorf("Run after Load(%q) = %v, want %d staleallow finding(s)", c.pattern, diags, c.want)
		}
	}
}

// loadFixturePkg loads the one fixture package under testdata/src/name.
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
