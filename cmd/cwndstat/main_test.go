package main

import (
	"testing"
	"time"
)

// The usage gate, driven through the real flag variables the way main does:
// these values used to reach exp.RunIncast and panic.
func TestValidateFlags(t *testing.T) {
	defer func(r, w int, rto time.Duration) { *rounds, *warmup, *rtoMin = r, w, rto }(*rounds, *warmup, *rtoMin)
	const rto = 200 * time.Millisecond
	cases := []struct {
		name           string
		rounds, warmup int
		rtoMin         time.Duration
		wantErr        bool
	}{
		{"defaults", 100, 10, rto, false},
		{"warmup exceeds rounds", 5, 10, rto, true},
		{"zero rounds", 0, 0, rto, true},
		{"negative warmup", 5, -1, rto, true},
		{"zero rtomin", 100, 10, 0, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			*rounds, *warmup, *rtoMin = c.rounds, c.warmup, c.rtoMin
			if err := validate(); (err != nil) != c.wantErr {
				t.Errorf("validate = %v, wantErr=%v", err, c.wantErr)
			}
		})
	}
}
