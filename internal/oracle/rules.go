package oracle

import (
	"fmt"
	"math"

	"dctcpplus/internal/core"
	"dctcpplus/internal/obs"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/tcp"
)

// eps absorbs float64 rounding in window arithmetic comparisons; windows
// are counted in MSS units, so 1e-6 is far below any legal step.
const eps = 1e-6

// ceRange is a half-open byte range with the CE state its bytes first
// arrived with — the checker's shadow of the receiver's first-arrival
// reassembly model.
type ceRange struct {
	lo, hi int64
	ce     bool
}

// flowState holds all per-flow oracle state. Every handler runs
// synchronously inside the simulator's single-threaded event loop, in the
// exact order the endpoints process the underlying events.
type flowState struct {
	c    *Checker
	flow packet.FlowID
	cfg  tcp.Config
	snd  *tcp.Sender // read for its send frontier when permission is granted

	sndSub, rcvSub obs.Sub // the flow's subscriptions to its endpoints' sinks

	plus    *core.Enhancer // nil unless the flow runs the DCTCP+ enhancer
	plusCfg core.Config
	updater alphaUpdater // nil unless the flow runs a DCTCP-family estimator

	// --- packet-level models -------------------------------------------

	// maxSentEnd is the highest byte frontier ever serialized (snd_nxt
	// high-water mark as seen on the wire).
	maxSentEnd int64

	// Retransmission legality (RFC 5681/6582/6298 envelope): bytes below
	// permittedEnd have been granted retransmission permission by a
	// dupack-threshold crossing or an RTO. The grant is monotone — it is
	// never revoked — because with fault-induced reordering a legally
	// queued retransmission can serialize after the loss episode that
	// justified it has already been repaired by a late-arriving original.
	modelSndUna  int64
	dupacks      int64
	permittedEnd int64

	// Receiver echo model: first-arrival CE states of bytes at or above
	// the last emitted ACK, plus the RFC 3168 latch and the CE state of
	// the most recently delivered segment (the DCTCP flip machine's
	// ceState shadow).
	lastAckNo int64
	ackSeen   bool
	rcv       []ceRange
	eceLatch  bool
	lastCE    bool
	delivered bool

	// --- probe-level models --------------------------------------------

	prevProbe    Event
	haveProbe    bool
	rtoCount     int64 // EvRTO events so far
	prevRTOCount int64 // rtoCount at the previous probe
	freshEnd     int64 // lowest End of a never-retransmitted send after the last RTO; 0 = none

	// Alpha-cadence interval model: the estimator's windowEnd lies in
	// [aLoEnd, aHiEnd]; modelAcked mirrors its ackedBytes accumulator.
	aLoEnd     int64
	aHiEnd     int64
	modelAcked int64
}

func newFlowState(c *Checker, flow packet.FlowID, snd *tcp.Sender) *flowState {
	fs := &flowState{c: c, flow: flow, cfg: snd.Config(), snd: snd}
	cc := snd.CC()
	if e := enhancerOf(cc); e != nil {
		fs.plus = e
		fs.plusCfg = e.ConfigUsed()
	}
	fs.updater = updaterOf(cc)
	// The estimator anchors windowEnd = snd_nxt at Init; attach happens
	// before traffic, so the anchor interval starts at the current
	// frontier.
	fs.aLoEnd, fs.aHiEnd = snd.SndUna(), snd.SndNxt()
	return fs
}

// observe is the flow's one subscriber, shared by both endpoints' sinks.
func (fs *flowState) observe(r obs.Record, pkt *packet.Packet) {
	switch r.Kind {
	case obs.AckSent:
		fs.onAckSent(pkt)
	case obs.AckProcessed:
		fs.onProbe(r.ECE)
	case obs.Timeout:
		fs.onRTO()
	default:
		panic("oracle: a port's record reached a flow's endpoint subscriber")
	}
}

func (fs *flowState) report(rule, msg string) {
	fs.c.report(rule, fs.flow, fs.c.sched.Now(), msg)
}

// --- packet events ------------------------------------------------------

// onDataSent checks retransmission legality: a segment marked Retransmit
// may only appear on the wire if its range was covered by a dupack-
// threshold crossing (RFC 5681 fast retransmit, including RFC 6582 partial
// ACK repairs, whose permission extends to the recovery point) or by an
// RTO (go-back-N repair). Never-granted retransmissions — the engine
// inventing repair traffic without a loss signal — are the violation.
func (fs *flowState) onDataSent(pkt *packet.Packet) {
	now := fs.c.sched.Now()
	end := pkt.End()
	fs.c.record(Event{At: now, Kind: EvDataSent, Flow: fs.flow,
		Seq: pkt.Seq, End: end, Payload: pkt.Payload,
		Cwr: pkt.Flags.Has(packet.FlagCWR), Retransmit: pkt.Retransmit})

	if pkt.Retransmit {
		if end > fs.permittedEnd {
			fs.report("retrans-legality", fmt.Sprintf(
				"retransmission [%d,%d) beyond granted permission %d (no dupack threshold or RTO covers it)",
				pkt.Seq, end, fs.permittedEnd))
		}
	} else {
		if end > fs.maxSentEnd {
			fs.maxSentEnd = end
		}
		// A fresh (transmitted-exactly-once) segment after the last RTO is
		// the only thing whose RTT sample may clear the backoff (Karn).
		if fs.rtoCount > 0 && (fs.freshEnd == 0 || end < fs.freshEnd) {
			fs.freshEnd = end
		}
	}
}

// onAckDeliver models the sender-side feedback stream feeding the
// retransmission-permission envelope: cumulative advances reset the dupack
// run; repeats of the current cumulative point count toward the fast-
// retransmit threshold, which grants permission up to the current send
// frontier. The hook fires before the engine processes the ACK, so the
// engine's snd_nxt here is the NewReno recovery point (RFC 6582) the
// crossing sets: every partial-ACK repair of the episode lies below it.
func (fs *flowState) onAckDeliver(pkt *packet.Packet) {
	now := fs.c.sched.Now()
	fs.c.record(Event{At: now, Kind: EvAckDeliver, Flow: fs.flow,
		AckNo: pkt.AckNo, Ece: pkt.Flags.Has(packet.FlagECE)})
	switch {
	case pkt.AckNo > fs.modelSndUna:
		fs.modelSndUna = pkt.AckNo
		fs.dupacks = 0
	case pkt.AckNo == fs.modelSndUna:
		fs.dupacks++
		if fs.dupacks >= int64(fs.cfg.DupThresh) {
			fs.grant(fs.snd.SndNxt())
		}
	}
}

// grant extends retransmission permission to the engine's send frontier
// nxt or the wire-observed one, whichever is further. The engine's frontier
// can run ahead of the wire's: transmitted segments may still sit
// unserialized in the sender host's uplink queue (the kernel-TCP analogue
// is data in the qdisc), and a repair of them is as legal as of any other
// sent byte.
func (fs *flowState) grant(nxt int64) {
	fs.permittedEnd = max(fs.permittedEnd, nxt, fs.maxSentEnd)
}

// onDataDeliver feeds the receiver echo model with the segment's final
// (post-marking) ECN codepoint, in the exact order the receiver processes
// it: first-arrival CE per byte, the RFC 3168 latch (CWR processed before
// CE, as the receiver does), and the DCTCP flip machine's last-segment
// state.
func (fs *flowState) onDataDeliver(pkt *packet.Packet) {
	now := fs.c.sched.Now()
	ce := pkt.ECN == packet.CE
	fs.c.record(Event{At: now, Kind: EvDataDeliver, Flow: fs.flow,
		Seq: pkt.Seq, End: pkt.End(), Payload: pkt.Payload,
		CE: ce, Cwr: pkt.Flags.Has(packet.FlagCWR)})

	if pkt.Flags.Has(packet.FlagCWR) {
		fs.eceLatch = false
	}
	if ce {
		fs.eceLatch = true
	}
	fs.lastCE = ce
	fs.delivered = true
	fs.insertRange(pkt.Seq, pkt.End(), ce)
}

// insertRange records [lo, hi) in the first-arrival CE model, clipped to
// the unacknowledged region. Mirrors the receiver's reassembly semantics:
// bytes keep the CE state of the copy that arrived first.
func (fs *flowState) insertRange(lo, hi int64, ce bool) {
	if lo < fs.lastAckNo {
		lo = fs.lastAckNo
	}
	pos := lo
	i := 0
	for pos < hi {
		if i < len(fs.rcv) && fs.rcv[i].lo <= pos {
			if fs.rcv[i].hi > pos {
				pos = fs.rcv[i].hi
			}
			i++
			continue
		}
		gapHi := hi
		if i < len(fs.rcv) && fs.rcv[i].lo < gapHi {
			gapHi = fs.rcv[i].lo
		}
		fs.rcv = append(fs.rcv, ceRange{})
		copy(fs.rcv[i+1:], fs.rcv[i:])
		fs.rcv[i] = ceRange{pos, gapHi, ce}
		i++
		pos = gapHi
	}
}

// onAckSent is the cumulative-ACK and ECE-echo oracle. Monotonicity: the
// cumulative point never regresses and never passes the send frontier.
// Echo: an advancing ACK must cover a CE-uniform range of first-arrival
// bytes whose state matches its ECE bit (the DCTCP precise-echo
// aggregation rule — one ACK per CE-state flip); a duplicate ACK echoes
// the most recently delivered segment's state (precise) or the RFC 3168
// latch (classic, CWR terminates the echo epoch).
func (fs *flowState) onAckSent(pkt *packet.Packet) {
	now := fs.c.sched.Now()
	ece := pkt.Flags.Has(packet.FlagECE)
	fs.c.record(Event{At: now, Kind: EvAckSent, Flow: fs.flow, AckNo: pkt.AckNo, Ece: ece})

	ackNo := pkt.AckNo
	if fs.ackSeen && ackNo < fs.lastAckNo {
		fs.report("ack-monotonic", fmt.Sprintf("cumulative ACK regressed %d -> %d", fs.lastAckNo, ackNo))
		return
	}
	if ackNo > fs.maxSentEnd {
		fs.report("ack-monotonic", fmt.Sprintf("ACK %d beyond send frontier %d", ackNo, fs.maxSentEnd))
	}

	if ackNo > fs.lastAckNo {
		fs.checkEchoAdvance(ackNo, ece)
		fs.dropBelow(ackNo)
		fs.lastAckNo = ackNo
	} else {
		fs.checkEchoDup(ece)
	}
	fs.ackSeen = true
}

// checkEchoAdvance validates an ACK advancing the cumulative point over
// [lastAckNo, ackNo): in every ECN mode the advanced range must be fully
// covered by delivered bytes; the ECE bit is checked against the mode's
// echo model.
func (fs *flowState) checkEchoAdvance(ackNo int64, ece bool) {
	precise := false
	switch fs.cfg.ECN {
	case tcp.ECNOff:
		if ece {
			fs.report("ece-echo", "ECE set with ECN off")
		}
	case tcp.ECNClassic:
		if ece != fs.eceLatch {
			fs.report("ece-echo", fmt.Sprintf("classic echo %v != latch %v", ece, fs.eceLatch))
		}
	case tcp.ECNPrecise:
		precise = true
	default:
		panic("oracle: unknown ECN mode")
	}
	// Precise echo: the advanced range must carry one uniform first-arrival
	// CE state equal to the ECE bit. Mixed states inside one cumulative ACK
	// are exactly the delayed-ACK aggregation bug DCTCP's two-state machine
	// exists to prevent.
	pos := fs.lastAckNo
	for _, r := range fs.rcv {
		if r.hi <= pos {
			continue
		}
		if r.lo > pos {
			break // hole: bytes acked but never delivered (reported below)
		}
		if precise && r.ce != ece {
			fs.report("ece-echo", fmt.Sprintf(
				"ACK %d (ece=%v) covers bytes [%d,%d) first delivered with ce=%v — CE-state flip aggregated into one ACK",
				ackNo, ece, max64(r.lo, fs.lastAckNo), min64(r.hi, ackNo), r.ce))
			return
		}
		pos = r.hi
		if pos >= ackNo {
			return
		}
	}
	fs.report("ack-monotonic", fmt.Sprintf(
		"ACK %d advances over bytes [%d,%d) never delivered to the receiver", ackNo, pos, ackNo))
}

// checkEchoDup validates the ECE bit of a non-advancing (duplicate) ACK.
func (fs *flowState) checkEchoDup(ece bool) {
	switch fs.cfg.ECN {
	case tcp.ECNOff:
		if ece {
			fs.report("ece-echo", "ECE set with ECN off")
		}
	case tcp.ECNClassic:
		if ece != fs.eceLatch {
			fs.report("ece-echo", fmt.Sprintf("classic echo %v != latch %v", ece, fs.eceLatch))
		}
	case tcp.ECNPrecise:
		// Every ACK emission is triggered by (or follows, for the delack
		// timer, only with in-order segments pending) a segment delivery
		// that re-synced the flip machine, so a duplicate ACK echoes the
		// last delivered segment's CE state.
		if fs.delivered && ece != fs.lastCE {
			fs.report("ece-echo", fmt.Sprintf(
				"duplicate ACK ece=%v but last delivered segment ce=%v", ece, fs.lastCE))
		}
	default:
		panic("oracle: unknown ECN mode")
	}
}

// dropBelow discards model ranges fully below the new cumulative point.
func (fs *flowState) dropBelow(ackNo int64) {
	keep := 0
	for _, r := range fs.rcv {
		if r.hi <= ackNo {
			continue
		}
		if r.lo < ackNo {
			r.lo = ackNo
		}
		fs.rcv[keep] = r
		keep++
	}
	fs.rcv = fs.rcv[:keep]
}

// --- sender events ------------------------------------------------------

// onRTO observes a retransmission timeout: it grants go-back-N repair
// permission, re-anchors the alpha-cadence model at the (about to be)
// rewound frontier, and invalidates any pending fresh-send evidence.
// The Timeout record is emitted before the engine rewinds snd_nxt, so snd
// still reports the pre-rewind frontier here.
func (fs *flowState) onRTO() {
	snd := fs.snd
	now := fs.c.sched.Now()
	una := snd.SndUna() // unchanged by the rewind (only snd_nxt rewinds)
	fs.c.record(Event{At: now, Kind: EvRTO, Flow: fs.flow,
		SndUna: una, Backoff: int(snd.RTOBackoff())})
	fs.rtoCount++
	fs.freshEnd = 0
	// Go-back-N legally retransmits everything below the pre-rewind
	// snd_nxt, which the timer may find still queued at the uplink.
	fs.grant(snd.SndNxt())
	// The estimator re-anchors windowEnd at the rewound snd_nxt == snd_una
	// and clears its accumulators (the PR 4 contract — the D2TCP module
	// originally swallowed this hook, which this model's overdue rule
	// catches).
	fs.aLoEnd, fs.aHiEnd = una, una
	fs.modelAcked = 0
}

// onProbe is the per-ACK sender oracle: NewReno recovery arithmetic
// (RFC 6582), RTO backoff discipline (RFC 6298 §5.5-5.7 with Karn's
// reset rule), DCTCP alpha cadence, and the DCTCP+ Figure 4 machine.
func (fs *flowState) onProbe(ece bool) {
	snd := fs.snd
	now := fs.c.sched.Now()
	ev := Event{At: now, Kind: EvAckProbe, Flow: fs.flow, Ece: ece,
		Cwnd: snd.CwndMSS(), Ssthresh: snd.SsthreshMSS(),
		SndUna: snd.SndUna(), SndNxt: snd.SndNxt(),
		Backoff: int(snd.RTOBackoff()), State: int(snd.State()),
		AlphaUpdates: -1, PlusState: -1}
	if fs.updater != nil {
		ev.AlphaUpdates = fs.updater.Updates()
	}
	if fs.plus != nil {
		ev.PlusState = int(fs.plus.State())
		ev.SlowTime = fs.plus.SlowTime()
	}
	fs.c.record(ev)

	if !fs.haveProbe {
		fs.haveProbe = true
		fs.prevProbe = ev
		fs.prevRTOCount = fs.rtoCount
		return
	}
	prev := fs.prevProbe
	rtosBetween := fs.rtoCount - fs.prevRTOCount

	fs.checkBackoff(prev, ev, rtosBetween)
	if rtosBetween == 0 {
		fs.checkNewReno(prev, ev)
		fs.checkPlus(prev, ev)
	}
	fs.checkAlphaCadence(prev, ev)

	fs.prevProbe = ev
	fs.prevRTOCount = fs.rtoCount
}

// checkBackoff enforces the RFC 6298 backoff discipline: the exponent
// grows by exactly one per RTO (saturating at the engine's cap of 16) and
// resets to zero only on an RTT sample from a segment transmitted exactly
// once after the last timeout — Karn's rule. A reset without fresh-send
// evidence is the bug this PR fixes in the engine.
func (fs *flowState) checkBackoff(prev, cur Event, rtos int64) {
	expected := int64(prev.Backoff) + rtos
	if expected > 16 {
		expected = 16
	}
	switch {
	case int64(cur.Backoff) == expected:
		// Normal evolution (incl. no change).
	case cur.Backoff == 0 && expected > 0:
		if fs.freshEnd == 0 || fs.freshEnd > cur.SndUna {
			fs.report("rto-backoff", fmt.Sprintf(
				"backoff reset %d -> 0 without an acknowledged fresh segment (fresh end %d, snd_una %d): only a non-retransmitted RTT sample may clear it",
				prev.Backoff, fs.freshEnd, cur.SndUna))
		}
	default:
		fs.report("rto-backoff", fmt.Sprintf(
			"backoff %d -> %d with %d RTOs in between", prev.Backoff, cur.Backoff, rtos))
	}
}

// checkNewReno verifies the RFC 6582 recovery arithmetic between two
// adjacent probes with no intervening RTO.
func (fs *flowState) checkNewReno(prev, cur Event) {
	const rec = int(tcp.StateRecovery)
	const open = int(tcp.StateOpen)
	acked := cur.SndUna - prev.SndUna
	mss := float64(fs.cfg.MSS)
	switch {
	case prev.State != rec && cur.State == rec:
		// Entry: cwnd = ssthresh + DupThresh (window inflation).
		want := cur.Ssthresh + float64(fs.cfg.DupThresh)
		if math.Abs(cur.Cwnd-want) > eps {
			fs.report("newreno-arith", fmt.Sprintf(
				"recovery entry cwnd %.4f != ssthresh %.4f + dupthresh %d", cur.Cwnd, cur.Ssthresh, fs.cfg.DupThresh))
		}
	case prev.State == rec && cur.State == rec && acked > 0:
		// Partial ACK: deflate by the acked amount, re-inflate by one.
		want := prev.Cwnd - float64(acked)/mss + 1
		if want < fs.cfg.MinCwnd {
			want = fs.cfg.MinCwnd
		}
		if math.Abs(cur.Cwnd-want) > eps {
			fs.report("newreno-arith", fmt.Sprintf(
				"partial-ACK deflation: cwnd %.4f -> %.4f, want %.4f (acked %d)", prev.Cwnd, cur.Cwnd, want, acked))
		}
	case prev.State == rec && cur.State == rec:
		// Duplicate ACK inflates by one; other zero-progress ACKs leave
		// the window alone.
		if math.Abs(cur.Cwnd-prev.Cwnd-1) > eps && math.Abs(cur.Cwnd-prev.Cwnd) > eps {
			fs.report("newreno-arith", fmt.Sprintf(
				"in-recovery dup ACK: cwnd %.4f -> %.4f, want +1 or unchanged", prev.Cwnd, cur.Cwnd))
		}
	case prev.State == rec && cur.State == open:
		// Full ACK: deflate to ssthresh (clamped).
		want := clamp(cur.Ssthresh, fs.cfg.MinCwnd, fs.cfg.MaxCwnd)
		if math.Abs(cur.Cwnd-want) > eps {
			fs.report("newreno-arith", fmt.Sprintf(
				"recovery exit cwnd %.4f != clamped ssthresh %.4f", cur.Cwnd, want))
		}
	case cur.State == int(tcp.StateLoss) && prev.State != int(tcp.StateLoss):
		// StateLoss is only entered by the RTO handler.
		fs.report("newreno-arith", "entered loss state without an RTO")
	}
}

// checkAlphaCadence enforces DCTCP's once-per-window alpha fold (Eq. 1):
// at most one fold per ACK, never before the cumulative point reaches the
// window anchor, and never stalled once a full window of data has been
// acknowledged — the overdue direction is how the D2TCP swallowed-
// OnTimeout bug surfaces.
func (fs *flowState) checkAlphaCadence(prev, cur Event) {
	if fs.updater == nil || prev.AlphaUpdates < 0 {
		return
	}
	delta := cur.AlphaUpdates - prev.AlphaUpdates
	switch {
	case delta == 0:
		if acked := cur.SndUna - prev.SndUna; acked > 0 {
			fs.modelAcked += acked
		}
		if fs.modelAcked > 0 && cur.SndUna >= fs.aHiEnd {
			fs.report("alpha-cadence", fmt.Sprintf(
				"alpha fold overdue: snd_una %d passed window anchor <= %d with %d bytes accumulated",
				cur.SndUna, fs.aHiEnd, fs.modelAcked))
			// Re-anchor so one stall reports once, not per ACK.
			fs.aLoEnd, fs.aHiEnd = cur.SndUna, cur.SndNxt
			fs.modelAcked = 0
		}
	case delta == 1:
		if cur.SndUna < fs.aLoEnd {
			fs.report("alpha-cadence", fmt.Sprintf(
				"alpha folded early: snd_una %d below window anchor >= %d (more than once per window)",
				cur.SndUna, fs.aLoEnd))
		}
		fs.aLoEnd, fs.aHiEnd = cur.SndUna, cur.SndNxt
		fs.modelAcked = 0
	default:
		fs.report("alpha-cadence", fmt.Sprintf(
			"alpha updates jumped by %d in one ACK (max one fold per window)", delta))
		fs.aLoEnd, fs.aHiEnd = cur.SndUna, cur.SndNxt
		fs.modelAcked = 0
	}
}

// checkPlus verifies the DCTCP+ Figure 4 transition legality and
// Algorithm 1's slow_time bounds between adjacent probes with no
// intervening RTO (an RTO drives an extra evolve step, making the pair
// non-adjacent in machine steps).
func (fs *flowState) checkPlus(prev, cur Event) {
	if fs.plus == nil || prev.PlusState < 0 {
		return
	}
	cfg := fs.plusCfg
	if cur.SlowTime < 0 {
		fs.report("plus-machine", fmt.Sprintf("slow_time %v < 0", cur.SlowTime))
	}
	normal, ti, td := int(core.StateNormal), int(core.StateTimeInc), int(core.StateTimeDes)
	step := cur.SlowTime - prev.SlowTime
	divided := sim.Duration(float64(prev.SlowTime) / cfg.DivisorFactor)
	switch {
	case cur.PlusState == normal:
		if cur.SlowTime != 0 {
			fs.report("plus-machine", fmt.Sprintf("slow_time %v != 0 in DCTCP_NORMAL", cur.SlowTime))
		}
		if prev.PlusState == ti {
			fs.report("plus-machine", "illegal transition Time_Inc -> NORMAL (must pass through Time_Des)")
		}
		if prev.PlusState == td && prev.SlowTime > cfg.ThresholdT {
			fs.report("plus-machine", fmt.Sprintf(
				"returned to NORMAL with slow_time %v above threshold_T %v", prev.SlowTime, cfg.ThresholdT))
		}
	case cur.PlusState == ti && prev.PlusState == normal:
		// Entry requires congestion feedback with the window at its floor.
		if !cur.Ece && prev.State == int(tcp.StateOpen) {
			fs.report("plus-machine", "entered Time_Inc without congestion feedback (no ECE, sender Open)")
		}
		if prev.Cwnd > fs.cfg.MinCwnd+eps {
			fs.report("plus-machine", fmt.Sprintf(
				"entered Time_Inc with cwnd %.4f above the floor %.4f", prev.Cwnd, fs.cfg.MinCwnd))
		}
		if cur.SlowTime < 0 || cur.SlowTime > cfg.BackoffUnit {
			fs.report("plus-machine", fmt.Sprintf(
				"Time_Inc entry slow_time %v outside [0, backoff unit %v]", cur.SlowTime, cfg.BackoffUnit))
		}
	case cur.PlusState == ti && prev.PlusState == ti:
		if step < 0 || step > cfg.BackoffUnit {
			fs.report("plus-machine", fmt.Sprintf(
				"Time_Inc additive step %v outside [0, backoff unit %v]", step, cfg.BackoffUnit))
		}
	case cur.PlusState == ti && prev.PlusState == td:
		if step < 0 || step > cfg.BackoffUnit {
			fs.report("plus-machine", fmt.Sprintf(
				"Time_Des -> Time_Inc step %v outside [0, backoff unit %v]", step, cfg.BackoffUnit))
		}
	case cur.PlusState == td:
		if prev.PlusState == normal {
			fs.report("plus-machine", "illegal transition NORMAL -> Time_Des")
		}
		if prev.PlusState == td && prev.SlowTime <= cfg.ThresholdT {
			fs.report("plus-machine", fmt.Sprintf(
				"stayed in Time_Des with slow_time %v <= threshold_T %v (must return to NORMAL)",
				prev.SlowTime, cfg.ThresholdT))
		}
		if cur.SlowTime != prev.SlowTime && cur.SlowTime != divided {
			fs.report("plus-machine", fmt.Sprintf(
				"Time_Des slow_time %v -> %v: neither held (decay gate) nor divided by %v",
				prev.SlowTime, cur.SlowTime, cfg.DivisorFactor))
		}
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
