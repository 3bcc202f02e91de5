package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestStaleAllowAudit pins the allowlist audit on its fixture: loaded on
// its own, the fixture's rotted directive is the one finding.
func TestStaleAllowAudit(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("internal/lint/testdata/src/staleallow")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, All())
	if len(diags) != 1 || diags[0].Analyzer != "staleallow" ||
		!strings.Contains(diags[0].Message, "stale //lint:allow floateq directive") {
		t.Errorf("audit over the fixture = %v, want exactly the stale floateq directive", diags)
	}
}

// TestRunAuditsEveryLoad pins that Run audits whatever was loaded, on the
// throwaway module under testdata/stalemod: its one rotted directive is
// reported after a load of the whole module and of just its package.
func TestRunAuditsEveryLoad(t *testing.T) {
	for _, pattern := range []string{"./a", "./a/...", "./...", "..."} {
		loader, err := NewLoader(filepath.Join("testdata", "stalemod"))
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := loader.Load(pattern)
		if err != nil {
			t.Fatal(err)
		}
		diags := Run(pkgs, All())
		if len(diags) != 1 || diags[0].Analyzer != "staleallow" {
			t.Errorf("Run after Load(%q) = %v, want exactly the staleallow finding", pattern, diags)
		}
	}
}
