package exp

import (
	"runtime"
	"testing"

	"dctcpplus/internal/sim"
)

// TestPaperShapes pins the qualitative results of the paper's evaluation
// as regressions: who wins, roughly by how much, and where the crossovers
// fall. Absolute numbers are simulator-specific; these bounds are the
// "shape" contract EXPERIMENTS.md documents. Skipped under -short.
//
// The battery runs on one P. Its parallel subtests still interleave as
// goroutines, so -race still sees their runs side by side, but they take
// one CPU, not every one: on a two-vCPU machine, a parallel `go test ./...`
// runs another package beside this one, and cmd/perf's TestCalibrate, which
// times fixed work, misreads the machine's speed when both CPUs are taken
// from it.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment battery")
	}
	// Parallel subtests run after this function returns, so the restore
	// waits in a cleanup for them to finish.
	procs := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	o := func(p Protocol, n int) IncastOptions {
		op := DefaultIncastOptions(p, n)
		op.Rounds = 30
		op.WarmupRounds = 8
		return op
	}

	t.Run("Fig1_TCPCollapsesEarly", func(t *testing.T) {
		t.Parallel()
		small := RunIncast(o(ProtoTCP, 1))
		big := RunIncast(o(ProtoTCP, 40))
		if small.GoodputMbps.Mean < 600 {
			t.Errorf("TCP N=1 goodput = %.0f, want healthy", small.GoodputMbps.Mean)
		}
		if big.GoodputMbps.Mean > 300 {
			t.Errorf("TCP N=40 goodput = %.0f, want collapsed", big.GoodputMbps.Mean)
		}
		if big.Timeouts == 0 {
			t.Error("TCP N=40 saw no timeouts")
		}
	})

	t.Run("Fig1_DCTCPGoodTo40CollapsedAt80", func(t *testing.T) {
		t.Parallel()
		mid := RunIncast(o(ProtoDCTCP, 40))
		big := RunIncast(o(ProtoDCTCP, 80))
		if mid.GoodputMbps.Mean < 850 {
			t.Errorf("DCTCP N=40 goodput = %.0f, want near line rate", mid.GoodputMbps.Mean)
		}
		if big.GoodputMbps.Mean > 200 {
			t.Errorf("DCTCP N=80 goodput = %.0f, want collapsed", big.GoodputMbps.Mean)
		}
	})

	t.Run("Fig7_DCTCPPlusSustains200Flows", func(t *testing.T) {
		t.Parallel()
		r := RunIncast(o(ProtoDCTCPPlus, 200))
		if r.GoodputMbps.Mean < 450 {
			t.Errorf("DCTCP+ N=200 goodput = %.0f, want in the paper's 600-900 band", r.GoodputMbps.Mean)
		}
		if r.FCTms.Mean > 30 {
			t.Errorf("DCTCP+ N=200 FCT = %.1fms, want paper's 8-17ms band", r.FCTms.Mean)
		}
		if r.TimeoutRoundFrac > 0.01 {
			t.Errorf("DCTCP+ steady-state timeout fraction = %v", r.TimeoutRoundFrac)
		}
	})

	t.Run("Seeds1to3_Fig7Band_Fig6Order_Fig11PlusWins", func(t *testing.T) {
		t.Parallel()
		// The report's run length (50 rounds, 10 warm-up) at three seeds:
		// Fig. 7 DCTCP+ inside the paper's 600-900 Mbps band, Fig. 6's
		// partial variant below the full one at N=200, and §VI-C DCTCP+
		// ahead of DCTCP with two background flows. §VI-C at N=20 is left
		// out: DCTCP+ trails DCTCP there, the over-throttle EXPERIMENTS.md
		// names as deviation (i).
		pt := func(p Protocol, n int, seed uint64) IncastOptions {
			op := DefaultIncastOptions(p, n)
			op.Rounds, op.WarmupRounds = 50, 10
			op.Testbed.Seed = seed
			return op
		}
		bg := func(p Protocol, n int, seed uint64) IncastOptions {
			op := pt(p, n, seed)
			op.BackgroundFlows, op.ChunkBytes = 2, 1<<20
			return op
		}
		var opts []IncastOptions
		for seed := uint64(1); seed <= 3; seed++ {
			opts = append(opts,
				pt(ProtoDCTCPPlus, 60, seed), pt(ProtoDCTCPPlus, 120, seed), pt(ProtoDCTCPPlus, 200, seed),
				pt(ProtoDCTCPPlusPartial, 200, seed),
				bg(ProtoDCTCPPlus, 60, seed), bg(ProtoDCTCP, 60, seed),
				bg(ProtoDCTCPPlus, 120, seed), bg(ProtoDCTCP, 120, seed))
		}
		res := RunMany(opts)
		for i := 0; i < len(res); i += 8 {
			r, seed := res[i:i+8], opts[i].Testbed.Seed
			for _, fig7 := range r[:3] {
				if g := fig7.GoodputMbps.Mean; g < 600 || g > 900 {
					t.Errorf("seed %d: Fig. 7 DCTCP+ N=%d goodput = %.0f Mbps, want inside 600-900", seed, fig7.Flows, g)
				}
			}
			if partial, full := r[3].GoodputMbps.Mean, r[2].GoodputMbps.Mean; partial >= full {
				t.Errorf("seed %d: Fig. 6 N=200 partial %.0f Mbps >= full %.0f Mbps", seed, partial, full)
			}
			for j := 4; j < 8; j += 2 {
				if plus, base := r[j].GoodputMbps.Mean, r[j+1].GoodputMbps.Mean; plus <= base {
					t.Errorf("seed %d: §VI-C N=%d DCTCP+ %.0f Mbps <= DCTCP %.0f Mbps", seed, r[j].Flows, plus, base)
				}
			}
		}
	})

	t.Run("Fig7_DCTCPPlusMatchesDCTCPAtLowN", func(t *testing.T) {
		t.Parallel()
		plus := RunIncast(o(ProtoDCTCPPlus, 10))
		base := RunIncast(o(ProtoDCTCP, 10))
		if plus.GoodputMbps.Mean < base.GoodputMbps.Mean*0.9 {
			t.Errorf("DCTCP+ N=10 = %.0f vs DCTCP %.0f: should be comparable",
				plus.GoodputMbps.Mean, base.GoodputMbps.Mean)
		}
	})

	t.Run("Fig8_ShortRTOHelpsButPlusStillWins", func(t *testing.T) {
		t.Parallel()
		short := o(ProtoDCTCP, 120)
		short.RTOMin = 10 * sim.Millisecond
		dctcp10 := RunIncast(short)
		plus := RunIncast(o(ProtoDCTCPPlus, 120))
		dctcp200 := RunIncast(o(ProtoDCTCP, 120))
		if dctcp10.GoodputMbps.Mean < 3*dctcp200.GoodputMbps.Mean {
			t.Errorf("RTOmin 10ms should lift DCTCP well above its 200ms self: %.0f vs %.0f",
				dctcp10.GoodputMbps.Mean, dctcp200.GoodputMbps.Mean)
		}
		if plus.GoodputMbps.Mean <= dctcp10.GoodputMbps.Mean {
			t.Errorf("DCTCP+ (%.0f) should still beat 10ms-RTO DCTCP (%.0f)",
				plus.GoodputMbps.Mean, dctcp10.GoodputMbps.Mean)
		}
	})

	t.Run("Fig9_PlusKeepsShorterQueueTail", func(t *testing.T) {
		t.Parallel()
		op := o(ProtoDCTCPPlus, 50)
		op.QueueSampleEvery = 100 * sim.Microsecond
		plus := RunIncast(op)
		ob := o(ProtoDCTCP, 50)
		ob.QueueSampleEvery = 100 * sim.Microsecond
		base := RunIncast(ob)
		if plus.QueueCDF().Quantile(0.99) >= base.QueueCDF().Quantile(0.99) {
			t.Errorf("DCTCP+ p99 queue %.0f >= DCTCP %.0f",
				plus.QueueCDF().Quantile(0.99), base.QueueCDF().Quantile(0.99))
		}
	})

	t.Run("Table1_FLossDominatesDeepCollapse", func(t *testing.T) {
		t.Parallel()
		// Paper Table I at N=60: 76% FLoss-TO / 24% LAck-TO. Our substrate
		// reproduces the dominance of full-window losses once collapse
		// sets in (and both classes occur), though the exact share varies
		// with N (see EXPERIMENTS.md).
		r := RunIncast(o(ProtoDCTCP, 80))
		if r.Timeouts == 0 {
			t.Skip("no timeouts to classify")
		}
		share := float64(r.FLossTO) / float64(r.FLossTO+r.LAckTO)
		if share < 0.5 {
			t.Errorf("FLoss share = %.2f, want dominant (paper: 0.76 at its N=60)", share)
		}
		if r.LAckTO == 0 {
			t.Error("LAck-TOs absent entirely; both classes should occur")
		}
	})

	t.Run("Table1_FloorECECoincidenceCommon", func(t *testing.T) {
		t.Parallel()
		// Paper Table I: the (cwnd at floor, ECE=1) condition occurs in
		// 50-58% of transmissions at N=20-40.
		r := RunIncast(o(ProtoDCTCP, 20))
		if r.MinCwndECEFrac < 0.3 {
			t.Errorf("floor/ECE coincidence = %.2f at N=20, want the paper's 'common' regime", r.MinCwndECEFrac)
		}
	})

	t.Run("FootnoteMinCwnd1DoesNotRescueDCTCP", func(t *testing.T) {
		t.Parallel()
		// The 1-MSS floor moves DCTCP's structural limit from
		// N ~ pipeline/(2 MSS) ~ 47 to N ~ pipeline/(1 MSS) ~ 93 — a
		// direct validation of the paper's §IV-C arithmetic — but cannot
		// help beyond it: high fan-in still collapses, which is footnote
		// 3's point.
		ext := RunIncast(o(ProtoDCTCPMin1, 80))
		if ext.GoodputMbps.Mean < 800 {
			t.Errorf("DCTCP-min1 N=80 = %.0f Mbps; 80x1 MSS fits the pipeline and should work",
				ext.GoodputMbps.Mean)
		}
		min1 := RunIncast(o(ProtoDCTCPMin1, 120))
		if min1.GoodputMbps.Mean > 300 {
			t.Errorf("DCTCP-min1 N=120 = %.0f Mbps: the floor change alone should not fix high fan-in",
				min1.GoodputMbps.Mean)
		}
	})

	t.Run("Extension_RenoPlusBeatsReno", func(t *testing.T) {
		t.Parallel()
		rp := RunIncast(o(ProtoRenoPlus, 80))
		rn := RunIncast(o(ProtoTCP, 80))
		if rp.GoodputMbps.Mean <= rn.GoodputMbps.Mean {
			t.Errorf("reno+ (%.0f) should beat plain TCP (%.0f) under fan-in",
				rp.GoodputMbps.Mean, rn.GoodputMbps.Mean)
		}
	})
}
