package lint

import (
	"go/token"
	"strings"
	"testing"
)

func TestParseInvValid(t *testing.T) {
	cases := []struct {
		src     string
		clauses int
	}{
		{"x >= 0", 1},
		{"0 <= x", 1},
		{"0 <= alpha && alpha <= 1", 2},
		{"0 <= alpha <= 1", 2}, // chained form, same meaning
		{"g > 0 && g <= 1", 2},
		{"qBytes <= cfg.BufferBytes", 1},
		{"1 <= a <= b <= 100", 3},
		{"x >= -2.5e3", 1},
	}
	for _, c := range cases {
		got, err := parseInv(c.src)
		if err != nil {
			t.Errorf("parseInv(%q): %v", c.src, err)
			continue
		}
		if len(got) != c.clauses {
			t.Errorf("parseInv(%q) = %d clauses, want %d", c.src, len(got), c.clauses)
		}
	}
}

func TestParseInvClauseShape(t *testing.T) {
	cl, err := parseInv("0 <= qBytes <= cfg.BufferBytes")
	if err != nil {
		t.Fatal(err)
	}
	if len(cl) != 2 {
		t.Fatalf("got %d clauses, want 2", len(cl))
	}
	if !cl[0].lhs.isNum || cl[0].lhs.num != 0 || cl[0].op != token.LEQ {
		t.Errorf("first clause = %+v, want 0 <= qBytes", cl[0])
	}
	if strings.Join(cl[1].rhs.path, ".") != "cfg.BufferBytes" {
		t.Errorf("second clause rhs path = %v, want cfg.BufferBytes", cl[1].rhs.path)
	}
	if cl[1].src != "qBytes <= cfg.BufferBytes" {
		t.Errorf("second clause src = %q", cl[1].src)
	}
}

func TestParseInvErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string // substring of the error
	}{
		{"", "empty contract"},
		{"   ", "empty contract"},
		{"x", "operand without a comparison"},
		{"x <", "expected operand, found 'EOF'"},
		{"<= 1", "expected operand, found '<='"},
		{"x == 1", `"==" is not a contract operator`},
		{"x = 1", "expected '==', found '='"},
		{"x >= 1 & y >= 2", `"&" is not a contract operator`},
		{"0 <= x >= 1", "mixed comparison directions"},
		{"x >= 1 y >= 2", "expected 'EOF', found y"},
		{"x ? 1", "illegal character U+003F '?'"},
		{"x. <= 1", "expected selector or type assertion"},
		{"x >= 1e999", "bad numeric literal"},
	}
	for _, c := range cases {
		_, err := parseInv(c.src)
		if err == nil {
			t.Errorf("parseInv(%q) succeeded, want error containing %q", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("parseInv(%q) = %q, want substring %q", c.src, err, c.want)
		}
		ie, ok := err.(*invError)
		if !ok {
			t.Errorf("parseInv(%q) error type %T, want *invError", c.src, err)
			continue
		}
		if ie.off < 0 || ie.off > len(c.src) {
			t.Errorf("parseInv(%q) error offset %d outside [0, %d]", c.src, ie.off, len(c.src))
		}
	}
}

// FuzzParseInv asserts the grammar's two safety properties over arbitrary
// payloads: the parser never panics, and every rejection carries a byte
// offset inside the input (so the collector can point at the offending
// column of the annotation).
func FuzzParseInv(f *testing.F) {
	for _, seed := range []string{
		"0 <= alpha && alpha <= 1",
		"qBytes <= cfg.BufferBytes",
		"g > 0 && g <= 1",
		"x >= -1.5e-3",
		"1 <= a <= b <= 100",
		"x == 1",
		"x < ",
		"&&",
		"..",
		"x\x00y",
		"\xff\xfe",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		clauses, err := parseInv(s)
		if err == nil {
			if len(clauses) == 0 {
				t.Errorf("parseInv(%q) accepted with zero clauses", s)
			}
			return
		}
		ie, ok := err.(*invError)
		if !ok {
			t.Errorf("parseInv(%q) error type %T, want *invError", s, err)
			return
		}
		if ie.off < 0 || ie.off > len(s) {
			t.Errorf("parseInv(%q) error offset %d outside [0, %d]", s, ie.off, len(s))
		}
	})
}
