package tcp

import (
	"fmt"

	"dctcpplus/internal/check"
	"dctcpplus/internal/netsim"
	"dctcpplus/internal/obs"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/telemetry"
)

// SenderState is the loss-recovery state of the sender, mirroring the
// Linux tcp_ca_state trio that matters for this model.
type SenderState int

const (
	// StateOpen: normal operation (includes the CWR epoch after an ECN
	// reduction).
	StateOpen SenderState = iota
	// StateRecovery: NewReno fast recovery after DupThresh duplicate ACKs.
	StateRecovery
	// StateLoss: retransmission-timeout recovery (go-back-N slow start).
	StateLoss
)

func (s SenderState) String() string {
	switch s {
	case StateOpen:
		return "open"
	case StateRecovery:
		return "recovery"
	case StateLoss:
		return "loss"
	}
	return "?"
}

// SenderStats counts transport events on one connection.
type SenderStats struct {
	SentPkts     int64
	SentBytes    int64
	RetransPkts  int64
	RetransBytes int64

	AcksIn  int64
	DupAcks int64
	ECEAcks int64 // ACKs carrying ECN-Echo

	FastRecoveries int64
	Timeouts       int64
	FLossTimeouts  int64
	LAckTimeouts   int64

	// MinCwndECESends counts data transmissions performed while cwnd sat
	// at the configured floor and the most recent ACK carried ECE — the
	// paper's Table I "cwnd=2, ECE=1" condition, i.e. the sender is asked
	// to slow down but the window cannot shrink further.
	MinCwndECESends int64

	Completions int64
}

// Sender is the sending half of a connection: it owns the congestion
// window, the retransmission machinery and the pacing gate, and it
// transmits application bytes toward the peer host.
//
// A Sender is (re)initialised only by open, which resets every field by
// whole-struct assignment except the keep-list it spells out; see Conn for
// the lifecycle.
type Sender struct {
	cfg   Config
	cc    CongestionControl
	host  *netsim.Host
	sched *sim.Scheduler
	rng   sim.RNG
	flow  packet.FlowID
	peer  packet.NodeID
	// live is set by open and cleared by Close; Send, Deliver and open
	// assert it.
	live bool

	// Byte-stream bookkeeping. The application appends bytes with Send;
	// completion fires each time sndUna catches up with the total.
	totalBytes   int64
	sndUna       int64
	sndNxt       int64
	maxSent      int64 // highest byte ever transmitted (for go-back-N rtx marking)
	completeMark int64

	// cwnd is the congestion window in MSS units. Every reduction clamps
	// to at least the 1-MSS loss-window floor; recovery inflation only
	// grows it.
	//inv: cwnd >= 1
	cwnd float64
	// ssthresh is the slow-start threshold in MSS units, clamped to the
	// configured window floor after every reduction.
	//inv: ssthresh >= 1
	ssthresh float64
	state    SenderState
	// dupacks counts consecutive duplicate ACKs; int64 because nothing
	// bounds a mass-incast ACK storm short of the 64-bit ceiling.
	dupacks int64
	recover int64 // recovery point: snd_nxt when loss was detected
	// ltCredit is the limited-transmit segments usable beyond cwnd
	// (RFC 3042): at most two per disorder episode, by the guard on the
	// only increment.
	//inv: 0 <= ltCredit && ltCredit <= 2
	ltCredit int

	// ECN reaction bookkeeping (at most one reduction per window of data).
	cwrEnd     int64
	needCWR    bool
	lastAckECE bool

	// RTT sampling: one timed segment at a time, Karn-invalidated.
	timedSeq   int64
	timedAt    sim.Time
	timedValid bool
	rtt        rttEstimator
	// rtoBackoff is the RTO exponent (rto << rtoBackoff), capped by the
	// guard on its only increment so the shift stays well-defined.
	//inv: rtoBackoff <= 16
	rtoBackoff uint

	rtoTimer     sim.Timer
	acksSinceArm int64 // feedback since the RTO was (re)armed, for taxonomy

	// Pacing: cc.PacingDelay gates data transmissions. Every packet is
	// delayed by the pacing gap from the moment it becomes eligible (the
	// kernel hrtimer semantics of DCTCP+), so even the first packet of an
	// idle-start burst waits its flow's slow_time — that per-flow random
	// delay is what desynchronizes concurrent round-start bursts.
	lastSendAt     sim.Time
	headWaitedFrom sim.Time     // when the head packet became eligible; -1 when none
	headGap        sim.Duration // pacing draw cached for the waiting head packet
	sendEv         *sim.Event
	pumpFn         func() // pacing-gate callback, bound once at the first open
	rtxPending     bool

	stats SenderStats

	// Telemetry instruments; nil (no-op) unless AttachTelemetry was called.
	// Concurrent flows of one experiment point typically share these (same
	// registry identity), aggregating transport events across the workload.
	mRetrans  *telemetry.Counter
	mTimeouts *telemetry.Counter
	mFLossTO  *telemetry.Counter
	mLAckTO   *telemetry.Counter
	mCwnd     *telemetry.Histogram

	// OnComplete fires when all bytes handed to Send so far are
	// acknowledged; total is the acknowledged byte count.
	OnComplete func(total int64)
	// Sink receives an obs.AckProcessed record after every processed ACK
	// (the tcp_probe analog) and an obs.Timeout record at every RTO.
	Sink obs.Sink
}

// NewSender creates a sender for flow on host, targeting the peer node, and
// registers it to receive that flow's ACKs.
func NewSender(cfg Config, cc CongestionControl, host *netsim.Host, peer packet.NodeID, flow packet.FlowID) *Sender {
	s := &Sender{}
	s.open(cfg, cc, host, peer, flow)
	return s
}

// open is the sender's one initialiser, run on a zero Sender by NewSender
// and NewConn and on a closed one by Conn.Reopen: a recycled sender is a
// fresh one except for the keep-list below.
func (s *Sender) open(cfg Config, cc CongestionControl, host *netsim.Host, peer packet.NodeID, flow packet.FlowID) {
	cfg.validate()
	if cc == nil {
		panic("tcp: nil congestion control")
	}
	sched := host.Scheduler()
	switch {
	case s.sched == nil:
		// First open: bind the callbacks every later open keeps.
		s.rtoTimer.Init(sched, s.onRTO)
		s.pumpFn = func() {
			s.sendEv = nil
			s.pump()
		}
	case s.live:
		check.Failf("tcp.sender open: flow %d is still open", s.flow)
	case s.sched != sched:
		check.Failf("tcp.sender open: flow %d moved to another scheduler", flow)
	}
	*s = Sender{
		cfg:            cfg,
		cc:             cc,
		host:           host,
		sched:          sched,
		flow:           flow,
		peer:           peer,
		live:           true,
		cwnd:           cfg.InitialCwnd,
		ssthresh:       cfg.MaxCwnd,
		rtt:            rttEstimator{rtoMin: cfg.RTOMin},
		lastSendAt:     -1 << 62,
		headWaitedFrom: -1,

		// The keep-list: the RTO timer (disarmed by Close) and the pacing
		// callback stay bound to this sender.
		rtoTimer: s.rtoTimer,
		pumpFn:   s.pumpFn,
	}
	s.rng.Reseed(cfg.Seed)
	host.Register(flow, s)
	cc.Init(s)
}

// Accessors used by congestion-control modules and experiments.

// CC returns the congestion-control module driving this sender.
func (s *Sender) CC() CongestionControl { return s.cc }

// CwndMSS returns the congestion window in MSS units.
func (s *Sender) CwndMSS() float64 { return s.cwnd }

// SsthreshMSS returns the slow-start threshold in MSS units.
func (s *Sender) SsthreshMSS() float64 { return s.ssthresh }

// MinCwndMSS returns the configured window floor in MSS units.
func (s *Sender) MinCwndMSS() float64 { return s.cfg.MinCwnd }

// State returns the loss-recovery state.
func (s *Sender) State() SenderState { return s.state }

// SndUna returns the first unacknowledged byte.
func (s *Sender) SndUna() int64 { return s.sndUna }

// SndNxt returns the next byte to be sent.
func (s *Sender) SndNxt() int64 { return s.sndNxt }

// TotalBytes returns the bytes handed to Send so far.
func (s *Sender) TotalBytes() int64 { return s.totalBytes }

// InflightBytes returns the unacknowledged bytes in the network.
func (s *Sender) InflightBytes() int64 { return s.sndNxt - s.sndUna }

// Now returns the current virtual time.
func (s *Sender) Now() sim.Time { return s.sched.Now() }

// RNG returns the sender's private random stream (for randomized CC).
func (s *Sender) RNG() *sim.RNG { return &s.rng }

// Config returns the connection configuration.
func (s *Sender) Config() Config { return s.cfg }

// Stats returns a snapshot of the sender counters.
func (s *Sender) Stats() SenderStats { return s.stats }

// AttachTelemetry registers the sender's instruments on reg under the given
// labels: retransmission and RTO-taxonomy counters (total, FLoss-TO,
// LAck-TO) and a per-ACK congestion-window histogram in MSS units. With a
// nil registry the instruments stay nil and every update is a no-op.
func (s *Sender) AttachTelemetry(reg *telemetry.Registry, labels ...telemetry.Label) {
	s.mRetrans = reg.Counter("tcp_retransmit_pkts_total", labels...)
	s.mTimeouts = reg.Counter("tcp_rto_total", labels...)
	s.mFLossTO = reg.Counter("tcp_rto_floss_total", labels...)
	s.mLAckTO = reg.Counter("tcp_rto_lack_total", labels...)
	s.mCwnd = reg.Histogram("tcp_cwnd_mss", labels...)
}

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (s *Sender) SRTT() sim.Duration { return s.rtt.SRTT() }

// RTO returns the current retransmission timeout including backoff.
func (s *Sender) RTO() sim.Duration {
	rto := s.rtt.RTO() << s.rtoBackoff
	if rto > RTOMax {
		rto = RTOMax
	}
	return rto
}

// RTOBackoff returns the current RTO backoff exponent (rto << backoff):
// zero in normal operation, incremented by each RTO, cleared only by an RTT
// sample from a non-retransmitted segment (Karn).
func (s *Sender) RTOBackoff() uint { return s.rtoBackoff }

// Flow returns the flow id.
func (s *Sender) Flow() packet.FlowID { return s.flow }

// LastAckECE reports whether the most recent ACK carried ECN-Echo.
func (s *Sender) LastAckECE() bool { return s.lastAckECE }

// Done reports whether every byte handed to Send has been acknowledged.
func (s *Sender) Done() bool { return s.totalBytes > 0 && s.sndUna >= s.totalBytes }

// Close disarms the sender's timers and unregisters it from its host.
func (s *Sender) Close() {
	s.rtoTimer.Stop()
	s.sched.Cancel(s.sendEv)
	s.sendEv = nil
	s.host.Unregister(s.flow)
	s.live = false
}

// Send appends n application bytes to the stream and starts transmitting.
// It may be called repeatedly (the incast workload issues one call per
// round on a persistent connection).
func (s *Sender) Send(n int64) {
	if n <= 0 {
		panic(fmt.Sprintf("tcp: Send(%d)", n))
	}
	if !s.live {
		check.Failf("tcp.sender Send: flow %d is closed", s.flow)
	}
	// Window restart after idle (Linux's tcp_slow_start_after_idle): a
	// window grown before an idle period longer than the RTO reflects stale
	// network state; in the incast it would open the next round with a
	// line-rate burst.
	if s.InflightBytes() == 0 && s.lastSendAt >= 0 {
		if idle := s.sched.Now().Sub(s.lastSendAt); idle > s.RTO() && s.cwnd > s.cfg.InitialCwnd {
			s.cwnd = s.cfg.InitialCwnd
		}
	}
	s.totalBytes += n
	s.pump()
}

// cwndBytes converts the fractional window to a byte budget.
func (s *Sender) cwndBytes() int64 {
	return int64(s.cwnd * packet.MSS)
}

// pump transmits whatever is currently allowed: a pending retransmission
// first, then new data while the window permits, with the congestion
// module's pacing delay enforced between consecutive transmissions. This is
// the tcp_transmit_skb choke point where DCTCP+ inserts slow_time.
func (s *Sender) pump() {
	for {
		var seq int64
		var payload int
		hole := false
		switch {
		case s.rtxPending:
			seq = s.sndUna
			if seq >= s.maxSent {
				// Everything sent is acknowledged; stale flag.
				s.rtxPending = false
				continue
			}
			payload = s.segSize(seq)
			hole = true
		case s.sndNxt < s.totalBytes:
			seq = s.sndNxt
			payload = s.segSize(seq)
			// Limited transmit extends the budget by one segment per early
			// duplicate ACK (RFC 3042).
			budget := s.cwndBytes() + int64(s.ltCredit)*packet.MSS
			if s.InflightBytes()+int64(payload) > budget {
				return // window-limited
			}
		default:
			return // nothing to send
		}
		// Anything at or below maxSent has been on the wire before: after a
		// timeout's go-back-N rewind, "new" transmissions from sndNxt are
		// really retransmissions.
		isRtx := seq < s.maxSent

		// Pacing gate: DCTCP+ regulates the sending time interval here.
		// Each packet waits its pacing delay from when it became eligible,
		// and consecutive packets are at least that delay apart. The draw
		// is made once per packet (cached in headGap) so a randomized
		// module yields one scatter per transmission, not per evaluation.
		now := s.sched.Now()
		if s.headWaitedFrom < 0 {
			if gap := s.cc.PacingDelay(s); gap > 0 {
				s.headWaitedFrom = now
				s.headGap = gap
			}
		}
		if s.headWaitedFrom >= 0 {
			allowed := s.headWaitedFrom.Add(s.headGap)
			if a2 := s.lastSendAt.Add(s.headGap); a2 > allowed {
				allowed = a2
			}
			if allowed.After(now) {
				if s.sendEv == nil {
					// Once-bound pumpFn: arming the pacing gate on the
					// per-packet path costs no closure.
					s.sendEv = s.sched.At(allowed, s.pumpFn)
				}
				return
			}
		}
		s.headWaitedFrom = -1

		s.transmit(seq, payload, isRtx)
		if hole {
			s.rtxPending = false
		} else {
			s.sndNxt += int64(payload)
			if s.sndNxt > s.maxSent {
				s.maxSent = s.sndNxt
			}
		}
	}
}

// segSize returns the payload length of the segment starting at seq: at
// most one MSS, cut at totalBytes. A repair — a segment starting below
// maxSent — is cut at maxSent instead, as an skb-based stack resends the
// segment it sent: bytes Send appended since are new data, never glued onto
// a retransmission.
func (s *Sender) segSize(seq int64) int {
	end := s.totalBytes
	if seq < s.maxSent {
		end = s.maxSent
	}
	rem := end - seq
	if rem <= 0 {
		return 0
	}
	if rem > packet.MSS {
		return packet.MSS
	}
	return int(rem)
}

// transmit builds and sends one data segment.
func (s *Sender) transmit(seq int64, payload int, rtx bool) {
	now := s.sched.Now()
	// Minted from the host's pool (a plain allocation when pooling is off);
	// AllocPacket returns a zeroed packet, so only the live fields are set.
	pkt := s.host.AllocPacket()
	pkt.Dst = s.peer
	pkt.Flow = s.flow
	pkt.Seq = seq
	pkt.Payload = payload
	pkt.SendTime = now
	pkt.Retransmit = rtx
	if s.cfg.ECN != ECNOff {
		pkt.ECN = packet.ECT
	}
	if s.needCWR {
		pkt.Flags |= packet.FlagCWR
		s.needCWR = false
	}

	// RTT timing (Karn): time one untransmitted segment at a time, and
	// invalidate the pending sample if its range is retransmitted.
	if rtx {
		if s.timedValid && seq < s.timedSeq {
			s.timedValid = false
		}
	} else if !s.timedValid {
		s.timedSeq = seq + int64(payload)
		s.timedAt = now
		s.timedValid = true
	}

	s.stats.SentPkts++
	s.stats.SentBytes += int64(payload)
	if rtx {
		s.stats.RetransPkts++
		s.stats.RetransBytes += int64(payload)
		s.mRetrans.Add(1)
	}
	// Table I instrumentation: a transmission attempted while the window
	// is pinned at its floor and congestion feedback is still arriving.
	if s.cwnd <= s.cfg.MinCwnd && s.lastAckECE {
		s.stats.MinCwndECESends++
	}

	s.lastSendAt = now
	s.host.Send(pkt)

	if !s.rtoTimer.Armed() {
		s.armRTO()
	}
}

// armRTO (re)arms the retransmission timer and resets the feedback counter
// used to classify an eventual expiry.
func (s *Sender) armRTO() {
	s.rtoTimer.Reset(s.RTO() + s.rng.Duration(RTOSlack))
	s.acksSinceArm = 0
}

// Deliver processes an arriving packet (ACKs; data is ignored — the flow is
// one-directional).
func (s *Sender) Deliver(pkt *packet.Packet) {
	if !s.live {
		check.Failf("tcp.sender Deliver: flow %d is closed", s.flow)
	}
	if !pkt.Flags.Has(packet.FlagACK) {
		return
	}
	now := s.sched.Now()
	ece := pkt.Flags.Has(packet.FlagECE)
	s.lastAckECE = ece
	s.stats.AcksIn++
	s.acksSinceArm++
	if ece {
		s.stats.ECEAcks++
	}

	ackNo := pkt.AckNo
	var acked int64
	switch {
	case ackNo > s.sndUna:
		acked = ackNo - s.sndUna
		s.sndUna = ackNo
		// A late cumulative ACK for pre-rewind data can overtake a
		// go-back-N rewind; snd_nxt never trails snd_una, or the sender
		// would "retransmit" bytes the receiver already acknowledged.
		if s.sndNxt < s.sndUna {
			s.sndNxt = s.sndUna
		}
		// RFC 6298 §5.5-5.7 / Karn: the exponential backoff is cleared only
		// by an RTT sample from a segment transmitted exactly once. A
		// cumulative ACK covering nothing but retransmitted data (the
		// go-back-N repair traffic after an RTO) says nothing about the
		// current path RTT, so it must leave the backoff in place. The timed
		// segment is Karn-invalidated on retransmission, which makes
		// "timedValid && ackNo >= timedSeq" exactly the legal-reset condition.
		if s.timedValid && ackNo >= s.timedSeq {
			s.rtt.Sample(now.Sub(s.timedAt))
			s.timedValid = false
			s.rtoBackoff = 0
		}
	case ackNo == s.sndUna && s.InflightBytes() > 0 && pkt.IsAck():
		s.dupacks++
		s.stats.DupAcks++
		// Limited transmit (RFC 3042), on as in the paper's kernels: the
		// first two duplicate ACKs each release one new segment beyond cwnd,
		// probing for the third that triggers fast retransmit. At 1-2 MSS
		// windows there is no new data to probe with (Table I's LAck-TOs).
		if s.state == StateOpen && s.dupacks <= 2 && s.ltCredit < 2 {
			s.ltCredit++
		}
	}

	// Let the congestion module observe the raw feedback (DCTCP's alpha
	// estimator, DCTCP+'s state machine) before the window changes.
	s.cc.OnAck(s, acked, ece)

	switch s.state {
	case StateOpen:
		if ece && s.sndUna > s.cwrEnd {
			s.ecnReduce()
		}
		if acked > 0 {
			s.dupacks = 0
			s.ltCredit = 0
			if !ece {
				s.grow(acked)
			}
		}
		if s.dupacks >= DupThresh {
			s.enterRecovery()
		}
	case StateRecovery:
		switch {
		case ackNo >= s.recover:
			// Full ACK: recovery complete, deflate to ssthresh.
			s.state = StateOpen
			s.cwnd = s.clampCwnd(s.ssthresh)
			s.dupacks = 0
		case acked > 0:
			// Partial ACK: retransmit the next hole, deflate partially
			// (RFC 6582).
			s.cwnd -= float64(acked) / packet.MSS
			s.cwnd += 1
			if s.cwnd < s.cfg.MinCwnd {
				s.cwnd = s.cfg.MinCwnd
			}
			s.rtxPending = true
			s.armRTO()
		default:
			// Duplicate ACK during recovery inflates the window so new
			// data keeps flowing.
			s.cwnd++
		}
	case StateLoss:
		if acked > 0 {
			s.dupacks = 0
			if s.sndUna >= s.recover {
				s.state = StateOpen
			}
			if !ece {
				s.grow(acked)
			}
		}
	}

	// Timer management: progress re-arms, full acknowledgement disarms.
	if acked > 0 {
		if s.InflightBytes() > 0 {
			s.armRTO()
		} else {
			s.rtoTimer.Stop()
		}
	}

	if s.Done() && s.totalBytes > s.completeMark {
		s.completeMark = s.totalBytes
		s.stats.Completions++
		if s.OnComplete != nil {
			s.OnComplete(s.totalBytes)
		}
	}

	s.assertInvariants()
	s.pump()

	// Sample the window on every processed ACK — the same cadence as the
	// paper's tcp_probe captures behind Fig. 2/Fig. 9.
	s.mCwnd.Observe(int64(s.cwnd + 0.5))

	if s.Sink.Active() {
		s.Sink.Emit(obs.Record{At: now, Flow: s.flow, Kind: obs.AckProcessed, ECE: ece}, nil)
	}
}

// assertInvariants checks the sender's window and sequence invariants on
// the ACK path, the only place this state changes. The window may inflate
// past MaxCwnd during recovery (one MSS per duplicate ACK), so only the
// 1-MSS loss-window floor bounds it from below. These are the runtime
// twins of the //inv: contracts on the fields they name.
func (s *Sender) assertInvariants() {
	check.AtLeast("tcp.cwnd (MSS)", s.cwnd, 1)
	check.AtLeast("tcp.ssthresh (MSS)", s.ssthresh, 1)
	check.AtMost("tcp.limited-transmit credit", int64(s.ltCredit), 2)
	check.AtMost("tcp.rto backoff exponent", int64(s.rtoBackoff), 16)
	check.NonNegative("tcp.inflight bytes", s.InflightBytes())
	check.NonNegative("tcp.snd_una", s.sndUna)
	check.AtMost("tcp.snd_nxt", s.sndNxt, s.totalBytes)
}

// grow applies slow start or congestion avoidance to the window, honoring
// any growth cap imposed by the congestion module (see CwndCapper). Both
// callers guard on forward progress, so acked is at least 1.
func (s *Sender) grow(acked int64) {
	if capper, ok := s.cc.(CwndCapper); ok {
		if cap, active := capper.CwndCap(s); active && s.cwnd >= cap {
			return
		}
	}
	if s.cwnd < s.ssthresh {
		s.cwnd += float64(acked) / packet.MSS
	} else {
		s.cwnd += float64(acked) / (packet.MSS * s.cwnd)
	}
	s.cwnd = s.clampCwnd(s.cwnd)
}

// clampCwnd bounds a window value to [MinCwnd, MaxCwnd]; MinCwnd is at
// least 1, so the result never drops below the 1-MSS loss window.
func (s *Sender) clampCwnd(w float64) float64 {
	if w < s.cfg.MinCwnd {
		return s.cfg.MinCwnd
	}
	if w > s.cfg.MaxCwnd {
		return s.cfg.MaxCwnd
	}
	return w
}

// ecnReduce performs the once-per-window ECN reaction: the congestion
// module chooses the new threshold (Reno halves, DCTCP scales by alpha/2),
// and the window cannot go below the configured floor — the exact
// limitation (§IV-B) that motivates DCTCP+.
func (s *Sender) ecnReduce() {
	s.ssthresh = s.cc.SsthreshAfterECN(s)
	if s.ssthresh < s.cfg.MinCwnd {
		s.ssthresh = s.cfg.MinCwnd
	}
	s.cwnd = s.clampCwnd(s.ssthresh)
	s.cwrEnd = s.sndNxt
	s.needCWR = true
}

// enterRecovery begins NewReno fast recovery and retransmits the first
// unacknowledged segment.
func (s *Sender) enterRecovery() {
	s.stats.FastRecoveries++
	s.state = StateRecovery
	s.recover = s.sndNxt
	s.ssthresh = s.cc.SsthreshAfterLoss(s)
	if s.ssthresh < s.cfg.MinCwnd {
		s.ssthresh = s.cfg.MinCwnd
	}
	s.cwnd = s.ssthresh + DupThresh // window inflation
	s.ltCredit = 0
	s.rtxPending = true
	s.armRTO()
}

// onRTO handles a retransmission timeout: classify it (FLoss vs LAck),
// collapse the window to 1 MSS, and go-back-N from sndUna in slow start.
// Timer callbacks are dynamic calls the call graph cannot follow, so the
// handler is annotated as a hot root directly: with tens of thousands of
// concurrent flows, RTO processing is itself a mass event (the paper's
// LAck-timeout storms), and may not allocate per firing.
//
//hot:path
func (s *Sender) onRTO() {
	if s.InflightBytes() <= 0 {
		return // spurious: everything acknowledged while timer fired
	}
	kind := LAckTO
	if s.acksSinceArm == 0 {
		kind = FLossTO
	}
	s.stats.Timeouts++
	s.mTimeouts.Add(1)
	if kind == FLossTO {
		s.stats.FLossTimeouts++
		s.mFLossTO.Add(1)
	} else {
		s.stats.LAckTimeouts++
		s.mLAckTO.Add(1)
	}
	if s.Sink.Active() {
		s.Sink.Emit(obs.Record{At: s.sched.Now(), Flow: s.flow, Kind: obs.Timeout, Timeout: uint8(kind)}, nil)
	}

	s.ssthresh = s.cc.SsthreshAfterLoss(s)
	if s.ssthresh < s.cfg.MinCwnd {
		s.ssthresh = s.cfg.MinCwnd
	}
	// Loss window: cwnd collapses to 1 MSS regardless of the floor; the
	// paper reads cwnd=1 samples as the timeout signature (Fig. 2).
	s.cwnd = 1
	s.state = StateLoss
	s.recover = s.sndNxt
	s.dupacks = 0
	s.ltCredit = 0
	s.timedValid = false

	// Go-back-N: rewind and retransmit from the first hole. Cumulative
	// ACKs from the receiver's reassembly buffer jump sndUna forward past
	// data that survived, so little is actually resent twice.
	s.sndNxt = s.sndUna
	s.rtxPending = false

	s.cc.OnTimeout(s)

	if s.rtoBackoff < 16 {
		s.rtoBackoff++
	}
	s.armRTO()
	s.pump()
}
