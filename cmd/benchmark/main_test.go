package main

import "testing"

// The usage gate, driven through the real flag variables the way main does:
// these values used to reach exp.RunIncast / BenchmarkConfig.validate and
// panic.
func TestValidateFlags(t *testing.T) {
	defer func(q, b, s int, m int64, in string, r, w int) {
		*queries, *background, *short, *maxBg, *incast, *rounds, *warmup = q, b, s, m, in, r, w
	}(*queries, *background, *short, *maxBg, *incast, *rounds, *warmup)
	cases := []struct {
		name                       string
		queries, background, short int
		maxBg                      int64
		incast                     string
		rounds, warmup             int
		wantErr                    bool
	}{
		{"defaults", 1000, 1000, 0, 10 << 20, "", 50, 10, false},
		{"background only", 0, 5, 0, 10 << 20, "", 50, 10, false},
		{"short only", 0, 0, 5, 10 << 20, "", 50, 10, false},
		{"negative queries", -1, 1000, 0, 10 << 20, "", 50, 10, true},
		{"negative background", 1000, -1, 0, 10 << 20, "", 50, 10, true},
		{"negative short", 1000, 1000, -1, 10 << 20, "", 50, 10, true},
		{"empty mix", 0, 0, 0, 10 << 20, "", 50, 10, true},
		{"maxbg below the smallest background flow", 1000, 1000, 0, 1, "", 50, 10, true},
		{"maxbg unused without background", 1000, 0, 0, 1, "", 50, 10, false},
		{"traffic mode ignores incast scale", 1000, 1000, 0, 10 << 20, "", 3, 3, false},
		{"incast mode", 1000, 1000, 0, 10 << 20, "4,8", 50, 10, false},
		{"incast mode warmup equals rounds", 1000, 1000, 0, 10 << 20, "4", 3, 3, true},
		{"incast mode zero rounds", 1000, 1000, 0, 10 << 20, "4", 0, 0, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			*queries, *background, *short, *maxBg, *incast, *rounds, *warmup =
				c.queries, c.background, c.short, c.maxBg, c.incast, c.rounds, c.warmup
			if err := validate(); (err != nil) != c.wantErr {
				t.Errorf("validate = %v, wantErr=%v", err, c.wantErr)
			}
		})
	}
}
