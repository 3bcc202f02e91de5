package main

import (
	"testing"
	"time"
)

// The usage gate, driven through the real flag variables the way main does:
// these values used to reach exp.RunIncast (or the bin division) and panic.
func TestValidateFlags(t *testing.T) {
	defer func(r, w int, rto time.Duration, tr bool, bin int) {
		*rounds, *warmup, *rtoMin, *traceMode, *binMS = r, w, rto, tr, bin
	}(*rounds, *warmup, *rtoMin, *traceMode, *binMS)
	const rto = 200 * time.Millisecond
	cases := []struct {
		name           string
		rounds, warmup int
		rtoMin         time.Duration
		trace          bool
		bin            int
		wantErr        bool
	}{
		{"defaults", 50, 10, rto, false, 50, false},
		{"zero rounds", 0, 0, rto, false, 50, true},
		{"warmup equals rounds", 10, 10, rto, false, 50, true},
		{"negative rtomin", 50, 10, -rto, false, 50, true},
		{"trace mode ignores the cdf scale", 0, 0, 0, true, 50, false},
		{"trace mode zero bin", 50, 10, rto, true, 0, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			*rounds, *warmup, *rtoMin, *traceMode, *binMS = c.rounds, c.warmup, c.rtoMin, c.trace, c.bin
			if err := validate(); (err != nil) != c.wantErr {
				t.Errorf("validate = %v, wantErr=%v", err, c.wantErr)
			}
		})
	}
}
