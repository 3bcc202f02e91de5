package exp

import (
	"math"
	"testing"

	"dctcpplus/internal/fault"
	"dctcpplus/internal/stats"
)

// TestBackgroundRunHonoursEveryOption is the regression for the fork that
// used to run §VI-C: a copy of RunIncast that silently ignored KeepRounds,
// CollectCwnd and Faults and left the derived fields zero. Every assertion
// here failed on that fork.
func TestBackgroundRunHonoursEveryOption(t *testing.T) {
	o := fastBackgroundOpts(ProtoDCTCP, 8)
	o.KeepRounds = true
	o.CollectCwnd = true
	o.Faults = &fault.GenConfig{Seed: 11}
	r := RunIncast(o)

	if r.SimTime <= 0 {
		t.Errorf("SimTime = %v, want the run's virtual span", r.SimTime)
	}
	if len(r.Series) != o.Rounds {
		t.Errorf("Series = %d rounds, want all %d", len(r.Series), o.Rounds)
	}
	if r.CwndHist == nil || r.CwndHist.Total() == 0 {
		t.Error("no cwnd histogram despite CollectCwnd")
	}
	if r.FaultStats == nil || r.FaultStats.EventsFired == 0 {
		t.Errorf("FaultStats = %+v, want a fired plan", r.FaultStats)
	}
	if r.Timeouts == 0 || r.TimeoutRoundFrac <= 0 {
		t.Errorf("TimeoutRoundFrac = %v with %d timeouts: not computed", r.TimeoutRoundFrac, r.Timeouts)
	}
	if r.MinCwndECEFrac <= 0 {
		t.Errorf("MinCwndECEFrac = %v: not computed", r.MinCwndECEFrac)
	}
	if len(r.PerFlowMeanMbps) != 2 || r.LongFlowMbps.Count == 0 {
		t.Errorf("long-flow numbers missing: %v %+v", r.PerFlowMeanMbps, r.LongFlowMbps)
	}
}

// TestOracleBackgroundIncast runs the mixed-traffic point under the
// conformance oracle — long-flow connections attached, long flows stopped
// before the drain, conservation audited once their backlog is delivered —
// and requires it violation-free, with and without a fault plan. At 4 MiB
// chunks the stopped long flows outlast the 100ms drain, so the ledger must
// be skipped rather than audited on a network that still holds packets.
func TestOracleBackgroundIncast(t *testing.T) {
	for _, p := range []Protocol{ProtoDCTCP, ProtoDCTCPPlus} {
		clean := fastBackgroundOpts(p, 8)
		clean.Oracle = true
		failViolations(t, p.String()+"/clean", RunIncast(clean))

		faulted := clean
		faulted.Faults = &fault.GenConfig{Seed: 11}
		failViolations(t, p.String()+"/faulted", RunIncast(faulted))

		undrained := clean
		undrained.ChunkBytes = 4 << 20
		failViolations(t, p.String()+"/undrained", RunIncast(undrained))
	}
}

// summaryBits is a stats.Summary as exact IEEE-754 bit patterns: Count,
// then Mean, Std, Min, Max, P50, P95, P99.
type summaryBits [8]uint64

func bitsOf(s stats.Summary) summaryBits {
	return summaryBits{uint64(s.Count), math.Float64bits(s.Mean), math.Float64bits(s.Std),
		math.Float64bits(s.Min), math.Float64bits(s.Max),
		math.Float64bits(s.P50), math.Float64bits(s.P95), math.Float64bits(s.P99)}
}

// TestBackgroundIncastGolden pins the Fig. 11/12 numbers to the values the
// separate §VI-C runner produced before it was folded into RunIncast
// (recorded at commit 9bdbaec: N=20, 2 long flows, 8 rounds, 2 warmup,
// 1 MiB chunks, seed 1). Bit-identical results mean the fold preserved the
// event order: long flows built right after the incast, started right
// before the queue sampler.
func TestBackgroundIncastGolden(t *testing.T) {
	golden := []struct {
		p                   Protocol
		goodput, fct, long  summaryBits
		perFlow             [2]uint64
		timeouts, dropsBtln int64
	}{
		{
			p:       ProtoDCTCP,
			goodput: summaryBits{6, 0x4087a31e23803df8, 0x401876e799dcd699, 0x408761f4dd250c25, 0x4087f2510b9b5549, 0x4087a615b4e14a08, 0x4087e4fe47d9276a, 0x4087efa6e4747f50},
			fct:     summaryBits{6, 0x40262e87d2c7b890, 0x3fb6eb93ab117820, 0x4025e4cd74927914, 0x40266bf8769ec2ce, 0x40262b7564302b41, 0x4026675cd0bb6ed6, 0x40266b0c88a47ecf},
			long:    summaryBits{2, 0x405b62a76b141ef8, 0x3ffeeec7af6ade00, 0x405ae6ec4c567380, 0x405bde6289d1ca70, 0x405b62a76b141ef8, 0x405bd20306bed2e4, 0x405bdbe9093465bb},
			perFlow: [2]uint64{0x405bde6289d1ca70, 0x405ae6ec4c567380},
		},
		{
			p:       ProtoDCTCPPlus,
			goodput: summaryBits{6, 0x405686491d4cdb8f, 0x402853d15cdeddac, 0x405287a7fc07cdec, 0x405a63cdffaa7edb, 0x40567c9bee0a3efc, 0x405a52a359503975, 0x405a605f119870fa},
			fct:     summaryBits{6, 0x4057b633482be8bc, 0x4029f26596c181ce, 0x4053dde15ca6ca04, 0x405c4b313be22e5e, 0x40575176ddaceee1, 0x405c122b1704ff43, 0x405c3fc99ae924f2},
			long:    summaryBits{73, 0x407bc42bba4f0697, 0x404914f9bf3ef502, 0x4075dbcbdff2fd1a, 0x4081cfbfec4ceab5, 0x407b57a4259491c1, 0x408082e90b0472c0, 0x4081a578f189dcd6},
			perFlow: [2]uint64{0x407c34758a29c4b6, 0x407b50c36bcaa6c0},
		},
	}
	for _, g := range golden {
		o := DefaultIncastOptions(g.p, 20)
		o.Rounds, o.WarmupRounds = 8, 2
		o.BackgroundFlows, o.ChunkBytes = 2, 1<<20
		r := RunIncast(o)
		if got := bitsOf(r.GoodputMbps); got != g.goodput {
			t.Errorf("%v GoodputMbps = %#x, want %#x", g.p, got, g.goodput)
		}
		if got := bitsOf(r.FCTms); got != g.fct {
			t.Errorf("%v FCTms = %#x, want %#x", g.p, got, g.fct)
		}
		if got := bitsOf(r.LongFlowMbps); got != g.long {
			t.Errorf("%v LongFlowMbps = %#x, want %#x", g.p, got, g.long)
		}
		if len(r.PerFlowMeanMbps) != 2 ||
			math.Float64bits(r.PerFlowMeanMbps[0]) != g.perFlow[0] ||
			math.Float64bits(r.PerFlowMeanMbps[1]) != g.perFlow[1] {
			t.Errorf("%v PerFlowMeanMbps = %v, want bits %#x", g.p, r.PerFlowMeanMbps, g.perFlow)
		}
		if r.Timeouts != g.timeouts || r.BottleneckDrops != g.dropsBtln {
			t.Errorf("%v timeouts/drops = %d/%d, want %d/%d",
				g.p, r.Timeouts, r.BottleneckDrops, g.timeouts, g.dropsBtln)
		}
	}
}
