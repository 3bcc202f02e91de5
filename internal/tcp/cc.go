package tcp

import "dctcpplus/internal/sim"

// CongestionControl is the pluggable congestion-control module interface,
// modeled on Linux's tcp_congestion_ops. The engine owns the mechanical
// parts shared by every algorithm — slow start / congestion avoidance
// growth, the NewReno recovery state machine, RTO management, and the
// once-per-window ECN reaction — while the module decides how hard to back
// off and (for DCTCP+) whether to pace transmissions.
//
// Call sequence per ACK: the engine first invokes OnAck (letting DCTCP
// update its alpha estimator before any window change), then applies its
// recovery/CWR/growth logic, consulting SsthreshAfterECN or
// SsthreshAfterLoss if a reduction is due.
type CongestionControl interface {
	// Name identifies the algorithm ("reno", "dctcp", "dctcp+"...).
	Name() string

	// Init is called by the sender's initialiser, on every open of a
	// connection: when it is created and on each Conn.Reopen. It is a full
	// reset — afterwards every field of the module outside its parameters
	// (gain, deadline factor, enhancement config, the wrapped module) equals
	// a freshly constructed one's, estimator, state machine, counters and
	// telemetry instruments included — so a connection's module can be
	// recycled with it (see workload.FlowFactory). Instruments are attached
	// after open.
	Init(s *Sender)

	// OnAck observes every arriving ACK. acked is the number of newly
	// acknowledged bytes (0 for duplicate ACKs); ece reports the ECN-Echo
	// flag.
	OnAck(s *Sender, acked int64, ece bool)

	// SsthreshAfterECN returns the slow-start threshold (in MSS) to adopt
	// when the engine reacts to an ECN-Echo (at most once per window).
	// Reno halves; DCTCP scales by (1 - alpha/2).
	SsthreshAfterECN(s *Sender) float64

	// SsthreshAfterLoss returns the slow-start threshold (in MSS) adopted
	// on entering fast recovery or after an RTO.
	SsthreshAfterLoss(s *Sender) float64

	// OnTimeout observes a retransmission timeout (after the engine has
	// collapsed cwnd); DCTCP+ uses it to drive its state machine.
	OnTimeout(s *Sender)

	// PacingDelay returns the minimum gap between consecutive data
	// transmissions. Zero means unpaced. DCTCP+ returns slow_time while
	// its state machine is engaged.
	PacingDelay(s *Sender) sim.Duration
}

// CwndCapper is an optional extension of CongestionControl: modules that
// implement it can cap window growth. The engine consults the cap inside
// its growth step; reductions are unaffected. DCTCP+ uses this to pin the
// window at its floor while the sending-time-interval regulation is
// engaged — rate recovery then happens through slow_time decay, and window
// growth resumes only after the machine returns to DCTCP_NORMAL.
type CwndCapper interface {
	// CwndCap returns the current growth ceiling in MSS and whether it is
	// active.
	CwndCap(s *Sender) (float64, bool)
}

// NewReno is classic TCP NewReno congestion control with optional RFC 3168
// ECN response. It is both the paper's "TCP" baseline (ECNOff) and, with
// ECNClassic, a standards-compliant ECN TCP.
type NewReno struct{}

// Name returns "reno".
func (NewReno) Name() string { return "reno" }

// Init is a no-op: NewReno holds no state to reset.
func (NewReno) Init(*Sender) {}

// OnAck is a no-op: the engine's shared growth logic is exactly Reno.
func (NewReno) OnAck(*Sender, int64, bool) {}

// SsthreshAfterECN halves the window (RFC 3168 treats a mark like a loss).
func (NewReno) SsthreshAfterECN(s *Sender) float64 { return s.CwndMSS() / 2 }

// SsthreshAfterLoss halves the window.
func (NewReno) SsthreshAfterLoss(s *Sender) float64 { return s.CwndMSS() / 2 }

// OnTimeout is a no-op for NewReno.
func (NewReno) OnTimeout(*Sender) {}

// PacingDelay is zero: NewReno does not pace.
func (NewReno) PacingDelay(*Sender) sim.Duration { return 0 }
