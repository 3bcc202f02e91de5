package exp

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"dctcpplus/internal/fault"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
)

// failViolations reports a run's oracle violations with their minimized
// event windows.
func failViolations(t *testing.T, label string, res IncastResult) {
	t.Helper()
	if res.OracleTotal == 0 {
		return
	}
	t.Errorf("%s: %d oracle violations", label, res.OracleTotal)
	for i, v := range res.OracleViolations {
		if i >= 3 {
			t.Logf("  ... (%d more)", len(res.OracleViolations)-i)
			break
		}
		t.Logf("  %v\n    %s", v, strings.Join(v.Window, "\n    "))
	}
}

// TestOracleMatrix runs every protocol under the clean baseline and each
// fault class in isolation — the full resilience sweep, N=64 (deep in the
// massive-incast regime, so TCP and DCTCP hit real RTOs and NewReno
// recovery) — and requires the whole matrix oracle-clean. The fault rows
// auto-calibrate their episode windows to each protocol's run span (see
// Resilience.Gen), so every cell's pathology actually overlaps traffic.
func TestOracleMatrix(t *testing.T) {
	base := DefaultIncastOptions(ProtoDCTCP, 64)
	base.Rounds = 5
	base.WarmupRounds = 1
	base.Oracle = true
	r := NewResilience(Scale{})
	r.Points = Grid(base, Protocols, []int{64})
	r.Gen = fault.GenConfig{Seed: 11, LossRate: 0.2}
	r.Run()
	var stressed bool
	for i, res := range r.Results {
		label := r.RowLabel(i/len(Protocols)) + "/" + res.Protocol.String()
		failViolations(t, label, res)
		if i >= len(Protocols) && (res.FaultStats == nil || res.FaultStats.EventsFired == 0) {
			t.Errorf("%s: no fault events fired; the cell is vacuous", label)
		}
		if res.Timeouts > 0 {
			stressed = true
		}
	}
	if !stressed {
		t.Error("no cell saw an RTO; the matrix never exercised loss recovery")
	}
}

// TestOracleResilienceReportScale pins the cmd/report resilience operating
// point (N=150, RTOmin 10ms): at this fan-in the stall fault makes RTOs
// fire while the timed-out window still sits queued at worker uplinks, and
// the go-back-N copy serializes after the delayed original — legal, and
// formerly a retrans-legality false positive (the RTO grant stopped at the
// wire-observed frontier instead of the pre-rewind snd_nxt).
func TestOracleResilienceReportScale(t *testing.T) {
	r := NewResilience(Scale{Seed: 1})
	for _, pt := range r.Points {
		if pt.Flows != 150 || pt.RTOMin != 10*sim.Millisecond || pt.Rounds != 10 || pt.WarmupRounds != 2 {
			t.Fatalf("operating point moved: %v N=%d RTOmin %v rounds %d/%d",
				pt.Protocol, pt.Flows, pt.RTOMin, pt.Rounds, pt.WarmupRounds)
		}
	}
	r.Check()
	r.Run()
	for i, res := range r.Results {
		failViolations(t, r.RowLabel(i/len(r.Points))+"/"+res.Protocol.String(), res)
	}
}

// TestOracleRepairClippedAtMaxSent is the reproduction grid of the
// repacketized-repair finding: plain TCP at N = 8 and 20, seeds 1-5,
// RTOmin 10ms, 30 rounds, no warm-up, where a round's short tail segment
// is lost and the next round's Send appends bytes before the repair goes
// out. A sender that re-cut the repair to a full MSS against the grown
// stream sent bytes beyond anything ever transmitted, and the oracle's
// retrans-legality rule caught it on 8 of the 10 points (N=8 seeds 1-4: 5,
// 3, 3 and 2 violations; N=20 seeds 2-5: 4, 2, 3 and 6). Every point must
// run oracle-clean: a repair ends at the highest byte ever sent.
func TestOracleRepairClippedAtMaxSent(t *testing.T) {
	for _, flows := range []int{8, 20} {
		for seed := uint64(1); seed <= 5; seed++ {
			o := DefaultIncastOptions(ProtoTCP, flows)
			o.Testbed.Seed = seed
			o.RTOMin = 10 * sim.Millisecond
			o.Rounds = 30
			o.WarmupRounds = 0
			o.Oracle = true
			res := RunIncast(o)
			label := fmt.Sprintf("tcp N=%d seed %d", flows, seed)
			failViolations(t, label, res)
			if res.Timeouts == 0 {
				t.Errorf("%s: no RTO fired; the point no longer exercises repair", label)
			}
		}
	}
}

// TestOracleByteLedgerPastInt32 drives the byte counters the oracle's
// conservation ledger reads past the range of an int32: one DCTCP flow of
// 9 x 256 MiB crosses the two-tier testbed (about 20 s of simulated time),
// and the run must end drained and violation-free. A counter narrowed to
// 32 bits wraps on the way and unbalances the ledger. The last checks show
// the run reached that range: the aggregator's delivered bytes and the
// sending worker's uplink enqueued bytes both exceed math.MaxInt32.
func TestOracleByteLedgerPastInt32(t *testing.T) {
	o := DefaultIncastOptions(ProtoDCTCP, 1)
	o.BytesPerFlow = 9 * 256 << 20
	o.Rounds, o.WarmupRounds = 1, 0
	o.Oracle = true
	var rig Rig
	res := rig.Run(o)
	if res.Truncated != nil {
		// The oracle drains, and audits the ledger, only a finished run.
		t.Fatalf("run not drained: %v", res.Truncated)
	}
	failViolations(t, "dctcp N=1, 2.25 GiB", res)
	// The workload places flow 0 on the first worker.
	if got := rig.tt.Aggregator.DeliveredBytes(); got <= math.MaxInt32 {
		t.Errorf("aggregator delivered %d bytes, want more than %d", got, math.MaxInt32)
	}
	if got := rig.tt.Workers[0].Uplink().Stats().EnqueuedBytes; got <= math.MaxInt32 {
		t.Errorf("worker uplink enqueued %d bytes, want more than %d", got, math.MaxInt32)
	}
}

// TestOracleMetamorphicFlowPermutation: flow ids are opaque demux keys, so
// relabeling them must leave every result — clean or faulted — identical.
func TestOracleMetamorphicFlowPermutation(t *testing.T) {
	const n = 12
	perm := make([]packet.FlowID, n)
	for i := range perm {
		// An arbitrary fixed derangement-ish relabeling with a gap in the
		// id space.
		perm[i] = packet.FlowID((i*5)%n + 100)
	}
	for _, tc := range []struct {
		name   string
		faults bool
	}{{"clean", false}, {"faults", true}} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(ids []packet.FlowID) IncastResult {
				o := DefaultIncastOptions(ProtoDCTCPPlus, n)
				o.Rounds = 4
				o.WarmupRounds = 1
				o.Oracle = true
				o.KeepRounds = true
				o.FlowIDs = ids
				if tc.faults {
					g := fault.DefaultGenConfig(5)
					o.Faults = &g
				}
				return RunIncast(o)
			}
			base := mk(nil)
			relabeled := mk(perm)
			failViolations(t, "base", base)
			failViolations(t, "relabeled", relabeled)
			if !reflect.DeepEqual(base, relabeled) {
				t.Errorf("flow-id relabeling changed the run:\nbase:      %+v\nrelabeled: %+v", base, relabeled)
			}
		})
	}
}

// TestOracleMetamorphicMirror: the two-tier tree is leaf-symmetric, so on
// a clean run reversing the flow-to-worker placement is a relabeling of
// identical subtrees and the result must be byte-identical.
func TestOracleMetamorphicMirror(t *testing.T) {
	mk := func(mirror bool) IncastResult {
		o := DefaultIncastOptions(ProtoDCTCP, 18)
		o.Rounds = 4
		o.WarmupRounds = 1
		o.Oracle = true
		o.KeepRounds = true
		o.MirrorWorkers = mirror
		return RunIncast(o)
	}
	straight := mk(false)
	mirrored := mk(true)
	failViolations(t, "straight", straight)
	failViolations(t, "mirrored", mirrored)
	if !reflect.DeepEqual(straight, mirrored) {
		t.Errorf("worker mirroring changed the run:\nstraight: %+v\nmirrored: %+v", straight, mirrored)
	}
}

// TestOracleMetamorphicTimeScaling: doubling every latency parameter
// (propagation delay, RTOmin) while halving every rate scales the
// simulation's whole timeline by exactly 2 — int64-nanosecond event times
// double, so per-round FCTs must double bit-exactly. The equivariance only
// holds when no unscaled randomness enters the timeline: service jitter is
// off, and the scenario is sized so no RTO fires (RTO arithmetic involves
// integer shifts that do not commute with doubling) and the DCTCP+
// machine stays out of its randomized backoff. Zero timeouts in both runs
// is asserted, not assumed.
func TestOracleMetamorphicTimeScaling(t *testing.T) {
	for _, p := range []Protocol{ProtoDCTCP, ProtoDCTCPPlus} {
		t.Run(p.String(), func(t *testing.T) {
			mk := func(scale int64) IncastResult {
				o := DefaultIncastOptions(p, 4)
				o.Rounds = 4
				o.WarmupRounds = 1
				o.Oracle = true
				o.KeepRounds = true
				o.Testbed.ServiceJitter = 0
				o.Testbed.Topo.LinkDelay *= sim.Duration(scale)
				o.Testbed.Topo.LinkRateBps /= scale
				o.RTOMin *= sim.Duration(scale)
				return RunIncast(o)
			}
			unit := mk(1)
			doubled := mk(2)
			failViolations(t, "unit", unit)
			failViolations(t, "doubled", doubled)
			if unit.Timeouts != 0 || doubled.Timeouts != 0 {
				t.Fatalf("scenario not timeout-free (unit %d, doubled %d); scaling exactness does not apply",
					unit.Timeouts, doubled.Timeouts)
			}
			if len(unit.Series) == 0 || len(unit.Series) != len(doubled.Series) {
				t.Fatalf("round series mismatch: %d vs %d", len(unit.Series), len(doubled.Series))
			}
			for i := range unit.Series {
				if doubled.Series[i].FCTms != 2*unit.Series[i].FCTms {
					t.Errorf("round %d: FCT %vms scaled to %vms, want exactly 2x",
						i, unit.Series[i].FCTms, doubled.Series[i].FCTms)
				}
			}
		})
	}
}

// TestOracleOffLeavesResultUnchanged: the checker is a pure observer — a
// run with it attached must report the same experiment numbers as one
// without, the oracle fields aside, with every other observer attached
// (cwnd probes, the queue sampler) and background long flows beside the
// incast. The result is read at the halt, before the oracle's drain, so
// the drain moves nothing but SimTime, which stays post-drain for
// cmd/perf's twin (see Rig.Run).
func TestOracleOffLeavesResultUnchanged(t *testing.T) {
	mk := func(on bool) IncastResult {
		o := DefaultIncastOptions(ProtoDCTCPPlus, 8)
		o.Rounds = 3
		o.WarmupRounds = 1
		o.KeepRounds = true
		o.CollectCwnd = true
		o.QueueSampleEvery = 100 * sim.Microsecond
		o.BackgroundFlows, o.ChunkBytes = 2, 64<<10
		o.Oracle = on
		return RunIncast(o)
	}
	off := mk(false)
	on := mk(true)
	failViolations(t, "on", on)
	if off.Queue.Len() == 0 || off.CwndHist.Total() == 0 || len(off.PerFlowMeanMbps) != 2 {
		t.Fatalf("observers saw nothing: %d queue samples, %d cwnd probes, %d long flows",
			off.Queue.Len(), off.CwndHist.Total(), len(off.PerFlowMeanMbps))
	}
	// The series is compared sample by sample: the result's copy shares
	// the sampler's last block, which the drain goes on filling past the
	// copy's end.
	if off.Queue.Len() != on.Queue.Len() {
		t.Fatalf("queue samples: %d without the oracle, %d with it", off.Queue.Len(), on.Queue.Len())
	}
	for i := 0; i < off.Queue.Len(); i++ {
		at, b := off.Queue.Sample(i)
		if at2, b2 := on.Queue.Sample(i); at != at2 || b != b2 {
			t.Fatalf("queue sample %d moved with the oracle attached: (%v, %d) -> (%v, %d)", i, at, b, at2, b2)
		}
	}
	on.Queue = off.Queue
	on.OracleViolations = nil
	on.OracleTotal = 0
	on.SimTime = off.SimTime // the oracle run drains 100ms extra
	if !reflect.DeepEqual(off, on) {
		t.Errorf("attaching the oracle changed the experiment:\noff: %+v\non:  %+v", off, on)
	}
}
