package oracle

import (
	"strings"
	"testing"

	"dctcpplus/internal/core"
	"dctcpplus/internal/dctcp"
	"dctcpplus/internal/netsim"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/tcp"
)

// runTransfer drives one sender-to-receiver transfer over a star with the
// full oracle suite attached and returns the checker for inspection.
// lossRate > 0 injects random loss on the sender's uplink (exercising fast
// retransmit, NewReno recovery, RTOs and the backoff discipline);
// bottleneck throttles the receiver-side downlink and arms DCTCP-style
// marking so the ECE echo and alpha oracles see real CE traffic.
func runTransfer(t *testing.T, cfg tcp.Config, cc tcp.CongestionControl, total int64, lossRate float64, bottleneck bool) *Checker {
	t.Helper()
	sched := sim.NewScheduler()
	star := netsim.NewStar(sched, 2, netsim.DefaultTopologyConfig())
	star.EnablePacketPool()
	ck := NewChecker(sched)
	conn := tcp.NewConn(cfg, cc, star.Hosts[0], star.Hosts[1], 7)
	ck.AttachConn(conn)
	ck.AttachHost(star.Hosts[0])
	ck.AttachHost(star.Hosts[1])
	if lossRate > 0 {
		star.Hosts[0].Uplink().Link().SetLoss(lossRate, 42)
	}
	if bottleneck {
		down := star.Switch.RouteTo(star.Hosts[1].ID())
		down.Link().SetRate(100_000_000)
		down.SetMarkThreshold(10 * packet.MSS)
	}
	conn.Sender.OnComplete = func(int64) { sched.Halt() }
	conn.Sender.Send(total)
	sched.RunUntil(sim.Time(60 * sim.Second))
	if !conn.Sender.Done() {
		t.Fatal("transfer did not complete")
	}
	ck.Finish(false)
	return ck
}

func requireClean(t *testing.T, ck *Checker) {
	t.Helper()
	for _, v := range ck.Violations() {
		t.Errorf("unexpected violation: %v\n  %s", v, strings.Join(v.Window, "\n  "))
	}
}

// requireViolation asserts at least one violation of the given rule whose
// message contains want.
func requireViolation(t *testing.T, ck *Checker, rule, want string) {
	t.Helper()
	for _, v := range ck.Violations() {
		if v.Rule == rule && strings.Contains(v.Msg, want) {
			if len(v.Window) > windowEvents {
				t.Errorf("violation window has %d events, cap is %d", len(v.Window), windowEvents)
			}
			return
		}
	}
	t.Errorf("no %q violation containing %q; got %v", rule, want, ck.Violations())
}

func TestCleanTransferNewReno(t *testing.T) {
	ck := runTransfer(t, tcp.DefaultConfig(), tcp.NewReno{}, 256*packet.MSS, 0, false)
	requireClean(t, ck)
}

func TestCleanTransferNewRenoUnderLoss(t *testing.T) {
	ck := runTransfer(t, tcp.DefaultConfig(), tcp.NewReno{}, 512*packet.MSS, 0.05, false)
	requireClean(t, ck)
}

func TestCleanTransferDCTCPMarked(t *testing.T) {
	ck := runTransfer(t, dctcp.Config(), dctcp.New(dctcp.DefaultGain), 1024*packet.MSS, 0, true)
	requireClean(t, ck)
}

func TestCleanTransferDCTCPPlusMarkedAndLossy(t *testing.T) {
	ck := runTransfer(t, dctcp.Config(), core.New(dctcp.DefaultGain, core.DefaultConfig()),
		1024*packet.MSS, 0.02, true)
	requireClean(t, ck)
}

func TestCleanTransferClassicECN(t *testing.T) {
	cfg := tcp.DefaultConfig()
	cfg.ECN = tcp.ECNClassic
	ck := runTransfer(t, cfg, tcp.NewReno{}, 1024*packet.MSS, 0, true)
	requireClean(t, ck)
}

// idleFlow builds a checker with one attached-but-idle connection so tests
// can feed hand-crafted events straight into its flowState.
func idleFlow(t *testing.T, cfg tcp.Config, cc tcp.CongestionControl) (*Checker, *flowState) {
	t.Helper()
	sched := sim.NewScheduler()
	star := netsim.NewStar(sched, 2, netsim.DefaultTopologyConfig())
	ck := NewChecker(sched)
	conn := tcp.NewConn(cfg, cc, star.Hosts[0], star.Hosts[1], 7)
	ck.AttachConn(conn)
	return ck, ck.flow(7)
}

func dataPkt(seq int64, payload int, retransmit, ce bool) *packet.Packet {
	pkt := &packet.Packet{Flow: 7, Seq: seq, Payload: payload, Retransmit: retransmit, ECN: packet.ECT}
	if ce {
		pkt.ECN = packet.CE
	}
	return pkt
}

func ackPkt(ackNo int64, ece bool) *packet.Packet {
	pkt := &packet.Packet{Flow: 7, AckNo: ackNo, Flags: packet.FlagACK}
	if ece {
		pkt.Flags |= packet.FlagECE
	}
	return pkt
}

func TestRetransLegality(t *testing.T) {
	ck, fs := idleFlow(t, tcp.DefaultConfig(), tcp.NewReno{})
	fs.onDataSent(dataPkt(0, packet.MSS, false, false))
	// A retransmission with neither a dupack-threshold crossing nor an RTO
	// behind it is illegal.
	fs.onDataSent(dataPkt(0, packet.MSS, true, false))
	requireViolation(t, ck, "retrans-legality", "no dupack threshold or RTO")
	// The minimized window must contain the offending retransmission.
	if w := strings.Join(ck.Violations()[0].Window, "\n"); !strings.Contains(w, "rtx") {
		t.Errorf("minimized window missing the retransmission event:\n%s", w)
	}

	// Crossing the dupack threshold grants permission up to the frontier.
	ck2, fs2 := idleFlow(t, tcp.DefaultConfig(), tcp.NewReno{})
	for i := 0; i < 4; i++ {
		fs2.onDataSent(dataPkt(int64(i)*packet.MSS, packet.MSS, false, false))
	}
	fs2.onAckDeliver(ackPkt(packet.MSS, false))
	for i := 0; i < tcp.DupThresh; i++ {
		fs2.onAckDeliver(ackPkt(packet.MSS, false))
	}
	fs2.onDataSent(dataPkt(packet.MSS, packet.MSS, true, false))
	requireClean(t, ck2)
}

// TestRetransLegalityRTOCoversQueuedFrontier pins the envelope for an RTO
// that fires while transmitted segments still sit unserialized in the
// sender host's uplink queue (the kernel analogue: timer expiry with data
// in the qdisc — surfaced by the stall fault at report scale). The wire
// tap has not seen those bytes, but go-back-N retransmissions up to the
// engine's pre-rewind snd_nxt are legal and must not be flagged.
func TestRetransLegalityRTOCoversQueuedFrontier(t *testing.T) {
	sched := sim.NewScheduler()
	star := netsim.NewStar(sched, 2, netsim.DefaultTopologyConfig())
	ck := NewChecker(sched)
	conn := tcp.NewConn(tcp.DefaultConfig(), tcp.NewReno{}, star.Hosts[0], star.Hosts[1], 7)
	ck.AttachConn(conn)
	fs := ck.flow(7)

	// The engine pushes its initial window; with no host taps attached the
	// checker observes none of it (maxSentEnd stays 0), standing in for
	// segments queued at the uplink but not yet on the wire.
	conn.Sender.Send(64 * packet.MSS)
	nxt := conn.Sender.SndNxt()
	if nxt == 0 {
		t.Fatal("sender transmitted nothing")
	}

	// Timeout before anything serialized: the grant must cover the
	// pre-rewind frontier, so the queued window's go-back-N copy is clean.
	fs.onRTO()
	fs.onDataSent(dataPkt(0, int(nxt), true, false))
	requireClean(t, ck)
}

// TestRetransLegalityDupackCoversQueuedFrontier is the fast-retransmit twin
// of the test above: a dupack-threshold crossing while the window still sits
// in the uplink queue sets the NewReno recovery point at the engine's
// snd_nxt, and the episode's partial-ACK repairs up to it are legal. A
// repair past the engine's frontier is still flagged.
func TestRetransLegalityDupackCoversQueuedFrontier(t *testing.T) {
	sched := sim.NewScheduler()
	star := netsim.NewStar(sched, 2, netsim.DefaultTopologyConfig())
	ck := NewChecker(sched)
	conn := tcp.NewConn(tcp.DefaultConfig(), tcp.NewReno{}, star.Hosts[0], star.Hosts[1], 7)
	ck.AttachConn(conn)
	fs := ck.flow(7)

	conn.Sender.Send(64 * packet.MSS)
	nxt := conn.Sender.SndNxt()
	for i := 0; i < tcp.DupThresh; i++ {
		fs.onAckDeliver(ackPkt(0, false))
	}
	fs.onDataSent(dataPkt(nxt-packet.MSS, packet.MSS, true, false))
	requireClean(t, ck)

	fs.onDataSent(dataPkt(nxt, packet.MSS, true, false))
	requireViolation(t, ck, "retrans-legality", "no dupack threshold or RTO")
}

func TestAckMonotonicity(t *testing.T) {
	ck, fs := idleFlow(t, tcp.DefaultConfig(), tcp.NewReno{})
	fs.onDataSent(dataPkt(0, 2*packet.MSS, false, false))
	fs.onDataDeliver(dataPkt(0, 2*packet.MSS, false, false))
	fs.onAckSent(ackPkt(2*packet.MSS, false))
	fs.onAckSent(ackPkt(packet.MSS, false))
	requireViolation(t, ck, "ack-monotonic", "regressed")
}

func TestAckBeyondFrontier(t *testing.T) {
	ck, fs := idleFlow(t, tcp.DefaultConfig(), tcp.NewReno{})
	fs.onDataSent(dataPkt(0, packet.MSS, false, false))
	fs.onAckSent(ackPkt(2*packet.MSS, false))
	requireViolation(t, ck, "ack-monotonic", "beyond send frontier")
}

func TestAckOverUndeliveredBytes(t *testing.T) {
	ck, fs := idleFlow(t, tcp.DefaultConfig(), tcp.NewReno{})
	fs.onDataSent(dataPkt(0, 2*packet.MSS, false, false))
	fs.onDataDeliver(dataPkt(0, packet.MSS, false, false))
	fs.onAckSent(ackPkt(2*packet.MSS, false))
	requireViolation(t, ck, "ack-monotonic", "never delivered")
}

// TestPreciseEchoMixedRun is the oracle-side twin of the receiver fix: a
// cumulative ACK that aggregates a CE-state flip into one ECE bit must be
// flagged.
func TestPreciseEchoMixedRun(t *testing.T) {
	ck, fs := idleFlow(t, dctcp.Config(), dctcp.New(dctcp.DefaultGain))
	fs.onDataSent(dataPkt(0, 2*packet.MSS, false, false))
	fs.onDataDeliver(dataPkt(0, packet.MSS, false, false))
	fs.onDataDeliver(dataPkt(packet.MSS, packet.MSS, false, true))
	fs.onAckSent(ackPkt(2*packet.MSS, true))
	requireViolation(t, ck, "ece-echo", "CE-state flip aggregated")

	// Split ACKs over the same delivery pattern are clean.
	ck2, fs2 := idleFlow(t, dctcp.Config(), dctcp.New(dctcp.DefaultGain))
	fs2.onDataSent(dataPkt(0, 2*packet.MSS, false, false))
	fs2.onDataDeliver(dataPkt(0, packet.MSS, false, false))
	fs2.onDataDeliver(dataPkt(packet.MSS, packet.MSS, false, true))
	fs2.onAckSent(ackPkt(packet.MSS, false))
	fs2.onAckSent(ackPkt(2*packet.MSS, true))
	requireClean(t, ck2)
}

func TestPreciseEchoDuplicateAck(t *testing.T) {
	ck, fs := idleFlow(t, dctcp.Config(), dctcp.New(dctcp.DefaultGain))
	fs.onDataSent(dataPkt(0, 2*packet.MSS, false, false))
	fs.onDataDeliver(dataPkt(0, packet.MSS, false, false))
	fs.onAckSent(ackPkt(packet.MSS, false))
	// An out-of-order CE segment triggers a duplicate ACK that must echo
	// the segment's CE state.
	fs.onDataDeliver(dataPkt(3*packet.MSS, packet.MSS, false, true))
	fs.onAckSent(ackPkt(packet.MSS, false))
	requireViolation(t, ck, "ece-echo", "last delivered segment")
}

func TestClassicEchoLatch(t *testing.T) {
	cfg := tcp.DefaultConfig()
	cfg.ECN = tcp.ECNClassic
	ck, fs := idleFlow(t, cfg, tcp.NewReno{})
	fs.onDataSent(dataPkt(0, 2*packet.MSS, false, false))
	fs.onDataDeliver(dataPkt(0, packet.MSS, false, true))
	fs.onAckSent(ackPkt(packet.MSS, false)) // latch set, echo missing
	requireViolation(t, ck, "ece-echo", "latch")

	// CWR clears the latch: a subsequent no-ECE ACK is legal.
	ck2, fs2 := idleFlow(t, cfg, tcp.NewReno{})
	fs2.onDataSent(dataPkt(0, 2*packet.MSS, false, false))
	fs2.onDataDeliver(dataPkt(0, packet.MSS, false, true))
	fs2.onAckSent(ackPkt(packet.MSS, true))
	cwr := dataPkt(packet.MSS, packet.MSS, false, false)
	cwr.Flags |= packet.FlagCWR
	fs2.onDataDeliver(cwr)
	fs2.onAckSent(ackPkt(2*packet.MSS, false))
	requireClean(t, ck2)
}

func TestEceWithECNOff(t *testing.T) {
	ck, fs := idleFlow(t, tcp.DefaultConfig(), tcp.NewReno{})
	fs.onDataSent(dataPkt(0, packet.MSS, false, false))
	fs.onDataDeliver(dataPkt(0, packet.MSS, false, false))
	fs.onAckSent(ackPkt(packet.MSS, true))
	requireViolation(t, ck, "ece-echo", "ECN off")
}

func TestBackoffDiscipline(t *testing.T) {
	ck, fs := idleFlow(t, tcp.DefaultConfig(), tcp.NewReno{})
	// Reset without fresh-send evidence: the Karn violation.
	fs.checkBackoff(&Event{Backoff: 2}, &Event{Backoff: 0, SndUna: 10 * packet.MSS}, 0)
	requireViolation(t, ck, "rto-backoff", "without an acknowledged fresh segment")

	// Reset with an acked fresh segment is legal.
	ck2, fs2 := idleFlow(t, tcp.DefaultConfig(), tcp.NewReno{})
	fs2.freshEnd = packet.MSS
	fs2.checkBackoff(&Event{Backoff: 2}, &Event{Backoff: 0, SndUna: packet.MSS}, 0)
	requireClean(t, ck2)

	// Growth must track the RTO count.
	ck3, fs3 := idleFlow(t, tcp.DefaultConfig(), tcp.NewReno{})
	fs3.checkBackoff(&Event{Backoff: 1}, &Event{Backoff: 3}, 1)
	requireViolation(t, ck3, "rto-backoff", "1 RTOs in between")
}

func TestNewRenoArithmetic(t *testing.T) {
	const open, rec = uint8(tcp.StateOpen), uint8(tcp.StateRecovery)
	ck, fs := idleFlow(t, tcp.DefaultConfig(), tcp.NewReno{})
	// Entry must inflate to ssthresh + DupThresh.
	fs.checkNewReno(
		&Event{State: open, Cwnd: 10, Ssthresh: 10},
		&Event{State: rec, Cwnd: 5, Ssthresh: 5})
	requireViolation(t, ck, "newreno-arith", "recovery entry")

	// Partial ACK must deflate by acked and re-inflate by one.
	ck2, fs2 := idleFlow(t, tcp.DefaultConfig(), tcp.NewReno{})
	fs2.checkNewReno(
		&Event{State: rec, Cwnd: 8, SndUna: 0},
		&Event{State: rec, Cwnd: 8, SndUna: 2 * packet.MSS})
	requireViolation(t, ck2, "newreno-arith", "partial-ACK")

	// Legal sequence: entry, dup inflation, partial, full-ACK exit.
	ck3, fs3 := idleFlow(t, tcp.DefaultConfig(), tcp.NewReno{})
	fs3.checkNewReno(&Event{State: open, Cwnd: 10, Ssthresh: 10, SndUna: 0},
		&Event{State: rec, Cwnd: 8, Ssthresh: 5, SndUna: 0})
	fs3.checkNewReno(&Event{State: rec, Cwnd: 8, SndUna: 0},
		&Event{State: rec, Cwnd: 9, SndUna: 0})
	fs3.checkNewReno(&Event{State: rec, Cwnd: 9, SndUna: 0},
		&Event{State: rec, Cwnd: 8, SndUna: 2 * packet.MSS})
	fs3.checkNewReno(&Event{State: rec, Cwnd: 8, Ssthresh: 5, SndUna: 2 * packet.MSS},
		&Event{State: open, Cwnd: 5, Ssthresh: 5, SndUna: 10 * packet.MSS})
	requireClean(t, ck3)

	// Loss state without an RTO is illegal.
	ck4, fs4 := idleFlow(t, tcp.DefaultConfig(), tcp.NewReno{})
	fs4.checkNewReno(&Event{State: open, Cwnd: 10}, &Event{State: uint8(tcp.StateLoss), Cwnd: 1})
	requireViolation(t, ck4, "newreno-arith", "loss state without an RTO")
}

// TestNewRenoArithmeticTolerance pins the eps band of the four NewReno
// window rules on a legal recovery sequence: entry, dup ACK, partial ACK,
// full ACK. Each window sits 1e-9 off its rule's want, computed from the
// window before it: rounding, which the sequence must pass clean. That
// half fails each rule's compare made exact. The same sequence with one
// window 2·eps off must report that rule alone.
func TestNewRenoArithmeticTolerance(t *testing.T) {
	const open, rec = uint8(tcp.StateOpen), uint8(tcp.StateRecovery)
	const ssthresh = 5.0
	steps := []struct {
		msg    string // the start of the rule's report
		state  uint8
		sndUna int64
		want   func(prev float64) float64
	}{
		{"recovery entry", rec, 0, func(float64) float64 { return ssthresh + tcp.DupThresh }},
		{"in-recovery dup ACK", rec, 0, func(prev float64) float64 { return prev + 1 }},
		{"partial-ACK deflation", rec, 2 * packet.MSS, func(prev float64) float64 { return prev - 2 + 1 }},
		{"recovery exit", open, 10 * packet.MSS, func(float64) float64 { return ssthresh }},
	}
	// run feeds the sequence to a fresh checker, with step bad's window
	// 2·eps off its want (none when bad is -1).
	run := func(bad int) *Checker {
		ck, fs := idleFlow(t, tcp.DefaultConfig(), tcp.NewReno{})
		prev := &Event{State: open, Cwnd: 10, Ssthresh: 10}
		for i, s := range steps {
			off := 1e-9
			if i == bad {
				off = 2 * eps
			}
			cur := &Event{State: s.state, Cwnd: s.want(prev.Cwnd) + off, Ssthresh: ssthresh, SndUna: s.sndUna}
			fs.checkNewReno(prev, cur)
			prev = cur
		}
		return ck
	}
	requireClean(t, run(-1))
	for i, s := range steps {
		ck := run(i)
		requireViolation(t, ck, "newreno-arith", s.msg)
		if n := len(ck.Violations()); n != 1 {
			t.Errorf("%s 2·eps off: %d violations, want that rule's alone: %v", s.msg, n, ck.Violations())
		}
	}
}

func TestAlphaCadence(t *testing.T) {
	ck, fs := idleFlow(t, dctcp.Config(), dctcp.New(dctcp.DefaultGain))
	// A full window acknowledged with no fold: the swallowed-OnTimeout bug.
	fs.aLoEnd, fs.aHiEnd = 0, 4*packet.MSS
	fs.checkAlphaCadence(
		&Event{AlphaUpdates: 3, SndUna: 0},
		&Event{AlphaUpdates: 3, SndUna: 5 * packet.MSS, SndNxt: 8 * packet.MSS})
	requireViolation(t, ck, "alpha-cadence", "overdue")

	// Two folds in one ACK is impossible.
	ck2, fs2 := idleFlow(t, dctcp.Config(), dctcp.New(dctcp.DefaultGain))
	fs2.checkAlphaCadence(&Event{AlphaUpdates: 3}, &Event{AlphaUpdates: 5})
	requireViolation(t, ck2, "alpha-cadence", "jumped")

	// A fold before the window anchor is early.
	ck3, fs3 := idleFlow(t, dctcp.Config(), dctcp.New(dctcp.DefaultGain))
	fs3.aLoEnd, fs3.aHiEnd = 4*packet.MSS, 8*packet.MSS
	fs3.checkAlphaCadence(
		&Event{AlphaUpdates: 3, SndUna: 2 * packet.MSS},
		&Event{AlphaUpdates: 4, SndUna: 3 * packet.MSS, SndNxt: 8 * packet.MSS})
	requireViolation(t, ck3, "alpha-cadence", "early")
}

func TestPlusMachineTransitions(t *testing.T) {
	cc := func() *core.Enhancer { return core.New(dctcp.DefaultGain, core.DefaultConfig()) }
	normal, ti, td := int8(core.StateNormal), int8(core.StateTimeInc), int8(core.StateTimeDes)
	unit := core.DefaultConfig().BackoffUnit

	ck, fs := idleFlow(t, dctcp.Config(), cc())
	fs.checkPlus(&Event{PlusState: normal}, &Event{PlusState: td, SlowTime: unit})
	requireViolation(t, ck, "plus-machine", "NORMAL -> Time_Des")

	ck2, fs2 := idleFlow(t, dctcp.Config(), cc())
	fs2.checkPlus(&Event{PlusState: ti, SlowTime: unit}, &Event{PlusState: normal})
	requireViolation(t, ck2, "plus-machine", "Time_Inc -> NORMAL")

	ck3, fs3 := idleFlow(t, dctcp.Config(), cc())
	fs3.checkPlus(&Event{PlusState: normal}, &Event{PlusState: normal, SlowTime: unit})
	requireViolation(t, ck3, "plus-machine", "slow_time")

	// Entering Time_Inc with the window above the floor violates Figure 4.
	ck4, fs4 := idleFlow(t, dctcp.Config(), cc())
	fs4.checkPlus(
		&Event{PlusState: normal, Cwnd: 10, State: uint8(tcp.StateOpen)},
		&Event{PlusState: ti, SlowTime: unit / 2, Ece: true})
	requireViolation(t, ck4, "plus-machine", "above the floor")

	// An additive step beyond one backoff unit violates Algorithm 1.
	ck5, fs5 := idleFlow(t, dctcp.Config(), cc())
	fs5.checkPlus(
		&Event{PlusState: ti, SlowTime: unit},
		&Event{PlusState: ti, SlowTime: 3 * unit})
	requireViolation(t, ck5, "plus-machine", "additive step")

	// Legal walk: Normal -> TimeInc (at floor, with ECE) -> TimeInc
	// (additive) -> TimeDes (held by the decay gate) -> divide -> Normal.
	ck6, fs6 := idleFlow(t, dctcp.Config(), cc())
	minCwnd := fs6.cfg.MinCwnd
	slow := unit / 2
	fs6.checkPlus(
		&Event{PlusState: normal, Cwnd: minCwnd, State: uint8(tcp.StateOpen)},
		&Event{PlusState: ti, SlowTime: slow, Ece: true, Cwnd: minCwnd})
	fs6.checkPlus(
		&Event{PlusState: ti, SlowTime: slow, Cwnd: minCwnd},
		&Event{PlusState: ti, SlowTime: slow + unit, Cwnd: minCwnd})
	fs6.checkPlus(
		&Event{PlusState: ti, SlowTime: slow + unit, Cwnd: minCwnd},
		&Event{PlusState: td, SlowTime: slow + unit, Cwnd: minCwnd})
	fs6.checkPlus(
		&Event{PlusState: td, SlowTime: slow + unit, Cwnd: minCwnd},
		&Event{PlusState: td, SlowTime: (slow + unit) / 2, Cwnd: minCwnd})
	fs6.checkPlus(
		&Event{PlusState: td, SlowTime: core.DefaultConfig().ThresholdT, Cwnd: minCwnd},
		&Event{PlusState: normal, SlowTime: 0, Cwnd: minCwnd})
	requireClean(t, ck6)
}

// TestPoolLedgerCatchesLeak pins the pool ledger's sensitivity on a
// drained tree: a run that returns every packet it minted balances, even
// when packets parked before AttachTwoTier are reused; a run that keeps
// one packet unreleased does not, and neither does the next run on the
// same tree, whose checker attached after the leak.
func TestPoolLedgerCatchesLeak(t *testing.T) {
	sched := sim.NewScheduler()
	tt := netsim.NewTwoTier(sched, 1, 1, netsim.DefaultTopologyConfig())
	pool := tt.EnablePacketPool()
	h := tt.Aggregator

	pool.Put(h.AllocPacket()) // parked by an earlier run

	clean := NewChecker(sched)
	clean.AttachTwoTier(tt)
	reused, minted := h.AllocPacket(), h.AllocPacket()
	pool.Put(reused)
	pool.Put(minted)
	clean.Finish(true)
	requireClean(t, clean)

	leaky := NewChecker(sched)
	leaky.AttachTwoTier(tt)
	kept := h.AllocPacket() // never released
	pool.Put(h.AllocPacket())
	leaky.Finish(true)
	requireViolation(t, leaky, "conservation", "pool ledger unbalanced: minted 2 packets but holds 1 on its freelist")

	next := NewChecker(sched)
	next.AttachTwoTier(tt)
	pool.Put(h.AllocPacket())
	next.Finish(true)
	requireViolation(t, next, "conservation", "pool ledger unbalanced: minted 2 packets but holds 1 on its freelist")
	_ = kept
}

func TestNilCheckerIsNoOp(t *testing.T) {
	var ck *Checker
	ck.AttachConn(nil)
	ck.AttachHost(nil)
	ck.AttachTwoTier(nil)
	if ck.Total() != 0 || ck.Violations() != nil || ck.Finish(true) != nil {
		t.Error("nil checker not a no-op")
	}
}

func TestViolationListBounded(t *testing.T) {
	ck, fs := idleFlow(t, tcp.DefaultConfig(), tcp.NewReno{})
	for i := 0; i < maxViolations+10; i++ {
		fs.onDataSent(dataPkt(int64(i)*packet.MSS, packet.MSS, true, false))
	}
	if got := len(ck.Violations()); got != maxViolations {
		t.Errorf("retained %d violations, want cap %d", got, maxViolations)
	}
	if ck.Total() != int64(maxViolations+10) {
		t.Errorf("total %d, want %d", ck.Total(), maxViolations+10)
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	sched := sim.NewScheduler()
	star := netsim.NewStar(sched, 2, netsim.DefaultTopologyConfig())
	ck := NewChecker(sched)
	conn := tcp.NewConn(tcp.DefaultConfig(), tcp.NewReno{}, star.Hosts[0], star.Hosts[1], 7)
	ck.AttachConn(conn)
	defer func() {
		if recover() == nil {
			t.Error("attaching the same flow twice did not panic")
		}
	}()
	ck.AttachConn(conn)
}

// TestRuntimeTwinsFire shows ringLen's always-on check.AtMost
// "oracle.ring fill", which backs the guard on its only increment, is
// live: a fill level corrupted past the ring's capacity must panic at the
// next recorded event.
func TestRuntimeTwinsFire(t *testing.T) {
	c := NewChecker(sim.NewScheduler())
	for i := 0; i < ringEvents+10; i++ {
		c.record(EvDataSent, 0) // control: wrapping a sane ring records quietly
	}
	c.ringLen = ringEvents + 1
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "invariant violated: oracle.ring fill") {
			t.Fatalf("corrupted ringLen: got panic %q, want the oracle.ring fill invariant violation", msg)
		}
	}()
	c.record(EvDataSent, 0)
}
