package exp

import (
	"fmt"
	"strings"
	"testing"

	"dctcpplus/internal/stats"
)

func TestPrintBenchmarkRowsWithShorts(t *testing.T) {
	rows := []BenchmarkResult{
		{
			Protocol:        ProtoDCTCPPlus,
			Queries:         10,
			QueryFCTms:      stats.Summarize([]float64{1, 2}),
			Short:           5,
			ShortFCTms:      stats.Summarize([]float64{3, 4}),
			Background:      10,
			BackgroundFCTms: stats.Summarize([]float64{5, 6}),
		},
	}
	var sb strings.Builder
	PrintBenchmarkRows(&sb, rows)
	out := sb.String()
	for _, col := range []string{"short", "s.mean", "s.p99"} {
		if !strings.Contains(out, col) {
			t.Errorf("missing column %q in:\n%s", col, out)
		}
	}
}

func TestPrintBenchmarkRowsWithoutShorts(t *testing.T) {
	rows := []BenchmarkResult{{Protocol: ProtoDCTCP, Queries: 1}}
	var sb strings.Builder
	PrintBenchmarkRows(&sb, rows)
	if strings.Contains(sb.String(), "s.mean") {
		t.Error("shorts columns rendered without short flows")
	}
}

func TestHULLTestbedConfig(t *testing.T) {
	tb := HULLTestbed()
	if tb.Topo.SwitchPort.Policy == 0 {
		t.Error("HULL testbed did not select phantom marking")
	}
	if tb.Topo.SwitchPort.PhantomDrainFactor != 0.95 {
		t.Error("HULL drain factor wrong")
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
