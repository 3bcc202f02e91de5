package main

import (
	"fmt"
	"strings"
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

// TestPrintBinScalesToBuffer: the Fig. 14 bar spans the buffer the testbed
// simulated, not a fixed 128 KiB, and a bin above it is capped.
func TestPrintBinScalesToBuffer(t *testing.T) {
	cases := []struct {
		maxBytes, bufBytes, bars int
	}{
		{64 << 10, 128 << 10, 30},
		{64 << 10, 256 << 10, 15},
		{128 << 10, 128 << 10, 60},
		{300 << 10, 256 << 10, 60},
	}
	for _, c := range cases {
		var sb strings.Builder
		printBin(&sb, 2, 50, c.maxBytes, c.bufBytes)
		want := fmt.Sprintf("t=  100ms %6dB |%s\n", c.maxBytes, strings.Repeat("#", c.bars))
		if sb.String() != want {
			t.Errorf("%d bytes in a %d-byte buffer: %q, want %q", c.maxBytes, c.bufBytes, sb.String(), want)
		}
	}
}
