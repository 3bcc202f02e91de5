// Package dctcp implements Data Center TCP congestion control (Alizadeh et
// al., SIGCOMM 2010) as a tcp.CongestionControl module: an EWMA estimator
// of the marked-packet fraction (Equation 1 of the DCTCP+ paper) and a
// proportional once-per-window reduction (Equation 2):
//
//	alpha <- (1-g)*alpha + g*F
//	W     <- (1 - alpha/2) * W,  W in [MinCwnd, MaxCwnd]
//
// where F is the fraction of bytes acknowledged with ECN-Echo during the
// last window of data. The module relies on the engine's ECNPrecise
// receiver mode for exact echo semantics.
package dctcp

import (
	"dctcpplus/internal/check"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/tcp"
	"dctcpplus/internal/telemetry"
)

// DefaultGain is the paper-recommended EWMA gain g = 1/16.
const DefaultGain = 1.0 / 16

// DCTCP is the congestion-control module. One instance serves exactly one
// sender.
type DCTCP struct {
	// g is the EWMA gain in (0, 1]; the constructor rejects anything else.
	g float64
	// alpha is the congestion-extent estimate, a convex combination of its
	// previous value and a fraction — Equation 1 keeps it in [0, 1].
	alpha float64

	ackedBytes  int64
	markedBytes int64
	windowEnd   int64 // snd_nxt at the start of the current observation window
	updates     int64 // completed alpha folds (the value itself may repeat)

	// Telemetry instruments; nil (no-op) unless AttachTelemetry was called.
	mAlphaUpdates *telemetry.Counter
	mWindowCuts   *telemetry.Counter
}

// New returns a DCTCP module with gain g (use DefaultGain). Alpha starts at
// 1, matching the Linux module's conservative initialization: the first
// congestion signal halves the window until real estimates accumulate.
func New(g float64) *DCTCP { return Recycle(nil, g) }

// Recycle is New under the workload.FlowFactory recycle contract: old is the
// retiring connection's module (nil for a new connection). When it is a
// *DCTCP it is re-parameterised in place and returned — the reset is Init's,
// run by the connection's open — and anything else is left alone for a new
// module.
func Recycle(old tcp.CongestionControl, g float64) *DCTCP {
	if g <= 0 || g > 1 {
		panic("dctcp: gain must be in (0, 1]")
	}
	if d, ok := old.(*DCTCP); ok && d != nil {
		d.g = g
		return d
	}
	return &DCTCP{g: g, alpha: 1}
}

// Name returns "dctcp".
func (d *DCTCP) Name() string { return "dctcp" }

// Alpha returns the current congestion-extent estimate in [0, 1].
func (d *DCTCP) Alpha() float64 { return d.alpha }

// Gain returns the EWMA gain g.
func (d *DCTCP) Gain() float64 { return d.g }

// Updates returns the number of completed once-per-window alpha folds.
// Consecutive folds can leave alpha numerically unchanged (F repeats), so
// cadence observers must watch this counter, not the value.
func (d *DCTCP) Updates() int64 { return d.updates }

// AttachTelemetry registers the estimator's instruments on reg under the
// given labels: counters for per-window alpha updates and ECN-driven window
// cuts. With a nil registry the instruments stay nil and every update is a
// no-op.
func (d *DCTCP) AttachTelemetry(reg *telemetry.Registry, labels ...telemetry.Label) {
	d.mAlphaUpdates = reg.Counter("dctcp_alpha_updates_total", labels...)
	d.mWindowCuts = reg.Counter("dctcp_window_cuts_total", labels...)
}

// Init resets the estimator to its as-constructed state — alpha 1, no
// accumulated bytes, no folds, no instruments — and starts the first
// observation window. The gain is kept.
func (d *DCTCP) Init(s *tcp.Sender) { *d = DCTCP{g: d.g, alpha: 1, windowEnd: s.SndNxt()} }

// OnAck accumulates acknowledged and marked bytes and, once per window of
// data (when the cumulative ACK passes the snd_nxt recorded at the window
// start), folds the marked fraction F into alpha.
func (d *DCTCP) OnAck(s *tcp.Sender, acked int64, ece bool) {
	d.ackedBytes += acked
	if ece {
		d.markedBytes += acked
	}
	if s.SndUna() >= d.windowEnd && d.ackedBytes > 0 {
		f := float64(d.markedBytes) / float64(d.ackedBytes)
		d.alpha = float64((1-d.g)*d.alpha) + float64(d.g*f)
		check.Unit("dctcp.alpha", d.alpha)
		d.ackedBytes, d.markedBytes = 0, 0
		d.windowEnd = s.SndNxt()
		d.updates++
		d.mAlphaUpdates.Add(1)
	}
}

// SsthreshAfterECN scales the window by (1 - alpha/2): a small alpha —
// mild congestion — trims gently; alpha near 1 behaves like Reno.
func (d *DCTCP) SsthreshAfterECN(s *tcp.Sender) float64 {
	d.mWindowCuts.Add(1)
	return s.CwndMSS() * (1 - float64(d.alpha/2))
}

// SsthreshAfterLoss halves the window, as the Linux DCTCP module does for
// genuine loss.
func (d *DCTCP) SsthreshAfterLoss(s *tcp.Sender) float64 {
	return s.CwndMSS() / 2
}

// OnTimeout keeps alpha — the estimator state survives RTOs — but
// restarts the observation window at the rewound snd_nxt. The engine has
// already performed the go-back-N rewind (snd_nxt = snd_una) when this
// hook runs, so the windowEnd recorded before the timeout can exceed the
// new snd_nxt; left in place, it would stall alpha updates until the whole
// pre-timeout window was re-acknowledged, with the retransmitted bytes
// double-counted in the marked-fraction accumulators.
func (d *DCTCP) OnTimeout(s *tcp.Sender) {
	d.ackedBytes, d.markedBytes = 0, 0
	d.windowEnd = s.SndNxt()
}

// PacingDelay is zero: plain DCTCP never paces — that inability to slow
// down below the window floor is precisely the pitfall DCTCP+ fixes.
func (d *DCTCP) PacingDelay(*tcp.Sender) sim.Duration { return 0 }

// Config returns a tcp.Config preset for DCTCP endpoints: precise ECN echo
// enabled and per-segment ACKs. Delayed ACKs coarsen the marked-byte
// fraction F (a delayed ACK attributes its whole byte range to one ECE
// bit) and — fatally for minimum-window operation — stall a one-segment
// window on the 40ms delayed-ACK timer, so DCTCP deployments acknowledge
// every segment on these tiny-RTT paths.
func Config() tcp.Config {
	cfg := tcp.DefaultConfig()
	cfg.ECN = tcp.ECNPrecise
	cfg.DelAckCount = 1
	return cfg
}
