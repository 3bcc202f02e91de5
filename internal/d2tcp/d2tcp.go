// Package d2tcp implements Deadline-Aware Data Center TCP (Vamanan et al.,
// SIGCOMM 2012) — the first of the DCTCP descendants the paper's §VII
// names as a composition target for the enhancement mechanism ("the idea
// of enhancement mechanism could be coalesced with other data center
// protocols, for example, D2TCP").
//
// D2TCP keeps DCTCP's alpha estimator but gamma-corrects the reduction
// with a per-flow deadline urgency d:
//
//	p = alpha^d
//	W <- W * (1 - p/2)
//
// A far-deadline flow (d < 1) raises p toward 1 and backs off aggressively,
// donating bandwidth; a near-deadline flow (d > 1) lowers p and holds its
// rate. d is clamped to the paper's [0.5, 2] range. With d = 1, D2TCP is
// exactly DCTCP.
package d2tcp

import (
	"math"

	"dctcpplus/internal/dctcp"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/tcp"
)

// Deadline-factor clamp range from the D2TCP paper.
const (
	MinDeadlineFactor = 0.5
	MaxDeadlineFactor = 2.0
)

// D2TCP is the congestion-control module. One instance serves one sender.
type D2TCP struct {
	inner *dctcp.DCTCP
	d     float64
}

// New returns a D2TCP module with EWMA gain g and deadline factor d
// (clamped to [0.5, 2]). d encodes urgency: the D2TCP paper computes it as
// Tc/D — the ratio of the flow's needed completion time to its remaining
// deadline; this library takes it as an explicit parameter so workloads
// can assign urgency directly.
func New(g, d float64) *D2TCP { return Recycle(nil, g, d) }

// Recycle is New under the workload.FlowFactory recycle contract: old is the
// retiring connection's module (nil for a new connection). When it is a
// *D2TCP it is re-parameterised in place, its estimator with it — the reset
// is Init's — and anything else is left alone for a new module.
func Recycle(old tcp.CongestionControl, g, d float64) *D2TCP {
	if d < MinDeadlineFactor {
		d = MinDeadlineFactor
	}
	if d > MaxDeadlineFactor {
		d = MaxDeadlineFactor
	}
	if t, ok := old.(*D2TCP); ok && t != nil {
		t.inner, t.d = dctcp.Recycle(t.inner, g), d
		return t
	}
	return &D2TCP{inner: dctcp.New(g), d: d}
}

// Name returns "d2tcp".
func (t *D2TCP) Name() string { return "d2tcp" }

// Updates returns the underlying estimator's completed alpha folds.
func (t *D2TCP) Updates() int64 { return t.inner.Updates() }

// DeadlineFactor returns the clamped urgency d.
func (t *D2TCP) DeadlineFactor() float64 { return t.d }

// Penalty returns p = alpha^d, the gamma-corrected backoff fraction.
func (t *D2TCP) Penalty() float64 {
	return pow(t.inner.Alpha(), t.d)
}

// Init resets the alpha estimator (the module's only state; d is a
// parameter) and starts its observation window.
func (t *D2TCP) Init(s *tcp.Sender) { t.inner.Init(s) }

// OnAck delegates marked-byte accounting to the DCTCP estimator.
func (t *D2TCP) OnAck(s *tcp.Sender, acked int64, ece bool) {
	t.inner.OnAck(s, acked, ece)
}

// SsthreshAfterECN applies the gamma-corrected cut W*(1 - p/2).
func (t *D2TCP) SsthreshAfterECN(s *tcp.Sender) float64 {
	return s.CwndMSS() * (1 - float64(t.Penalty()/2))
}

// SsthreshAfterLoss halves, as DCTCP does for real loss.
func (t *D2TCP) SsthreshAfterLoss(s *tcp.Sender) float64 {
	return s.CwndMSS() / 2
}

// OnTimeout keeps alpha across RTOs but must forward to the estimator so it
// re-anchors its observation window at the rewound snd_nxt and drops the
// partially-accumulated marked-byte counts. Swallowing the hook here (as
// this module originally did) left windowEnd beyond the post-rewind
// snd_nxt: alpha froze until the whole pre-timeout window was re-ACKed and
// every retransmitted byte was double-counted in F — the same bug fixed in
// the DCTCP module by PR 4, resurfaced by the oracle's alpha-cadence rule.
func (t *D2TCP) OnTimeout(s *tcp.Sender) { t.inner.OnTimeout(s) }

// PacingDelay is zero; compose with core.Enhance for the DCTCP+ mechanism.
func (t *D2TCP) PacingDelay(*tcp.Sender) sim.Duration { return 0 }

// Config returns the transport preset for D2TCP endpoints (same as DCTCP:
// precise echo, per-segment ACKs).
func Config() tcp.Config { return dctcp.Config() }

// pow computes alpha^d for alpha in [0, 1], clamping the degenerate edges
// so the penalty stays a valid backoff fraction.
func pow(alpha, d float64) float64 {
	if alpha <= 0 {
		return 0
	}
	if alpha >= 1 {
		return 1
	}
	return math.Pow(alpha, d)
}
