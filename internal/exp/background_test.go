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
// before the queue sampler. The patterns were re-recorded once since, when
// a hop became one event: a delivery scheduled as its packet starts
// serializing takes its tie-breaking sequence number earlier, which
// reorders same-instant events. The DCTCP+ row was re-recorded again when
// the decrease on entering DCTCP_Time_Des began to fire (it had been held
// back a full DecayInterval): its goodput went 89 -> 173 Mbps.
func TestBackgroundIncastGolden(t *testing.T) {
	golden := []struct {
		p                   Protocol
		goodput, fct, long  summaryBits
		perFlow             [2]uint64
		timeouts, dropsBtln int64
	}{
		{
			p:       ProtoDCTCP,
			goodput: summaryBits{6, 0x4087a9c3a36a5a80, 0x401d86ea487eb08d, 0x408761f4dd250c25, 0x4087f90b4569e3ee, 0x4087a2b82344966d, 0x4087f4026d6df352, 0x4087f809809de702},
			fct:     summaryBits{6, 0x40262877ee4e26d5, 0x3fbb9f8418cd5b46, 0x4025dea897635e74, 0x40266bf8769ec2ce, 0x40262ec6bce8533b, 0x4026675cd0bb6ed6, 0x40266b0c88a47ecf},
			long:    summaryBits{2, 0x405b64492c1669c8, 0x4001883b3b2c0bf8, 0x405ad807523d0969, 0x405bf08b05efca28, 0x405b64492c1669c8, 0x405be2847026da1e, 0x405bedbce7facd5a},
			perFlow: [2]uint64{0x405bf08b05efca28, 0x405ad807523d0969},
		},
		{
			p:       ProtoDCTCPPlus,
			goodput: summaryBits{6, 0x4065ae0f049390d5, 0x40277b64aa4273bb, 0x406354b167c6c48d, 0x40683937b1724eaf, 0x4065822d0afdeca6, 0x4067c462b68bcc04, 0x406821d9e5aa9af3},
			fct:     summaryBits{6, 0x40484b1ee2435697, 0x400a41fbe9005b33, 0x4045a4b87bdcf030, 0x404b1f16b11c6d1e, 0x4048605e5f30e800, 0x404a8cc8de2ac322, 0x404b01d3ed527e52},
			long:    summaryBits{35, 0x4079114416f5061a, 0x404681d820ed9913, 0x4073e84841e978d7, 0x407f13df48749e69, 0x407887a67746cca4, 0x407e964bc1a84c52, 0x407efb96437b63d6},
			perFlow: [2]uint64{0x4079b9bc6f5f1008, 0x40785ee2c866a13f},
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
