// Package core implements DCTCP+, the primary contribution of "Slowing
// Little Quickens More: Improving DCTCP for Massive Concurrent Flows"
// (Miao et al., ICPP 2015).
//
// DCTCP+ addresses two failure modes of DCTCP under high fan-in traffic:
//
//  1. When the congestion window has already been driven to its floor,
//     further ECN feedback cannot reduce the sending rate. DCTCP+ switches
//     to regulating the *sending time interval*: each transmission is
//     delayed by slow_time, trading hundreds of microseconds of pacing
//     for the hundreds of milliseconds a timeout would cost ("slowing
//     little quickens more").
//
//  2. Synchronized minimum-window flows still burst past the small
//     pipeline capacity of a data-center path and cause full-window
//     losses. DCTCP+ desynchronizes the senders by drawing each slow_time
//     increment uniformly from the backoff unit.
//
// The mechanism is the three-state machine of the paper's Figure 4 driven
// by the AIMD regulation of Algorithm 1:
//
//	DCTCP_NORMAL   --(cwnd at floor && (ECE || retransmit))--> DCTCP_Time_Inc
//	DCTCP_Time_Inc --(congestion persists)--> slow_time += random(unit)
//	DCTCP_Time_Inc --(no congestion)--> DCTCP_Time_Des, slow_time /= divisor
//	DCTCP_Time_Des --(congestion)--> DCTCP_Time_Inc, slow_time += random(unit)
//	DCTCP_Time_Des --(slow_time > threshold_T)--> slow_time /= divisor
//	DCTCP_Time_Des --(slow_time <= threshold_T)--> DCTCP_NORMAL
//
// The state machine is evaluated on every ACK (the paper's
// ndctcp_status_evolution hook) and on every retransmission timeout; the
// pacing delay applies at the transmit choke point (tcp_transmit_skb in
// the paper's kernel implementation, Sender.pump here).
//
// Enhancer implements the mechanism generically over any inner congestion
// control module, reflecting the paper's §VII observation that "the idea of
// enhancement mechanism could be coalesced with other data center
// protocols"; New composes it with DCTCP to produce DCTCP+ itself.
package core

import (
	"errors"

	"dctcpplus/internal/check"
	"dctcpplus/internal/dctcp"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/tcp"
	"dctcpplus/internal/telemetry"
)

// State is a DCTCP+ state-machine state (Figure 4).
type State int

const (
	// StateNormal: the inner protocol operates untouched.
	StateNormal State = iota
	// StateTimeInc: the window is at its floor and congestion feedback
	// keeps arriving; slow_time grows additively.
	StateTimeInc
	// StateTimeDes: congestion feedback stopped; slow_time decays
	// multiplicatively until it falls below threshold_T.
	StateTimeDes
)

func (s State) String() string {
	switch s {
	case StateNormal:
		return "DCTCP_NORMAL"
	case StateTimeInc:
		return "DCTCP_Time_Inc"
	case StateTimeDes:
		return "DCTCP_Time_Des"
	}
	return "?"
}

// Config parameterizes the enhancement mechanism. Guidance from §V-D:
// the backoff unit should be about the baseline RTT — large units waste
// bandwidth, small ones cannot relieve severe fan-in congestion — and the
// divisor should be 2: bigger recovers prematurely, smaller retards the
// regulation.
type Config struct {
	// BackoffUnit is backoff_time_unit, the additive step of slow_time;
	// it must be positive.
	BackoffUnit sim.Duration
	// DivisorFactor divides slow_time on each decrease step; it must
	// exceed 1.
	DivisorFactor float64
	// ThresholdT: once slow_time decays to or below this value in
	// DCTCP_Time_Des, the machine returns to DCTCP_NORMAL. It must be
	// non-negative.
	ThresholdT sim.Duration
	// DecayInterval rate-limits multiplicative decreases of slow_time to
	// at most one per interval, mirroring DCTCP's once-per-window cut
	// cadence. Without it, a handful of clean ACKs at the tail of a
	// congestion episode erase a slow_time that took tens of marked ACKs
	// to build, and the regulation never reaches the "hundreds to
	// thousands of microseconds" operating point the paper describes
	// (§V-A). This is the paper's "Threshold ... to guarantee the
	// relatively smooth regulation of the sending rate" knob, realized as
	// a cadence. Zero decays on every evaluation; negative is rejected.
	DecayInterval sim.Duration
	// Randomize draws each slow_time increment uniformly from
	// [0, BackoffUnit) to desynchronize concurrent flows. Disabling it
	// yields the partially-implemented DCTCP+ of the paper's Figure 6,
	// which collapses again past ~100 flows.
	Randomize bool
}

// DefaultConfig returns the calibrated parameters for the simulated
// testbed: divisor 2 and randomization on, per §V-D. The backoff unit is
// the *effective* baseline RTT of the operating regime — on the paper's
// hardware that includes hundreds of microseconds of 2010-era kernel stack
// latency on top of the ~60us wire RTT, and under fan-in load the queueing
// delay at a full 128KB buffer adds ~1ms. We default to 800us; the
// equilibrium slow_time then reaches the "hundreds to thousands of
// microseconds" the paper describes (§V-A), which is what lets hundreds of
// concurrent flows share the bottleneck without loss. See
// exp.NewBackoffUnitAblation for the sensitivity sweep behind this choice.
func DefaultConfig() Config {
	return Config{
		BackoffUnit:   800 * sim.Microsecond,
		DivisorFactor: 2,
		ThresholdT:    50 * sim.Microsecond,
		DecayInterval: 1 * sim.Millisecond,
		Randomize:     true,
	}
}

// Validate reports the first field outside its contract: the rule Recycle
// (and so every constructor) panics on, for callers that check a config
// before any run builds from it.
func (c Config) Validate() error {
	switch {
	case c.BackoffUnit <= 0:
		return errors.New("BackoffUnit must be positive")
	case c.DivisorFactor <= 1:
		return errors.New("DivisorFactor must exceed 1")
	case c.ThresholdT < 0:
		return errors.New("negative ThresholdT")
	case c.DecayInterval < 0:
		return errors.New("negative DecayInterval")
	}
	return nil
}

// Stats counts state-machine activity on one sender.
type Stats struct {
	EnterTimeInc  int64 // Normal/TimeDes -> TimeInc transitions
	DecSteps      int64 // multiplicative slow_time decreases
	ReturnsNormal int64 // TimeDes -> Normal transitions
	MaxSlowTime   sim.Duration

	// Occupancy is the virtual time spent in each state (indexed by
	// State), accumulated at every transition; call Enhancer.Occupancy for
	// values that include the currently open interval.
	Occupancy [3]sim.Duration
}

// Enhancer wraps an inner congestion-control module with the DCTCP+
// sending-time-interval regulation. It is itself a tcp.CongestionControl.
type Enhancer struct {
	inner tcp.CongestionControl
	cfg   Config

	state State
	// slowTime is the paper's slow_time pacing term: additive increases
	// and multiplicative decays keep it a non-negative delay.
	slowTime  sim.Duration
	lastDecay sim.Time
	stateFrom sim.Time // when the current state was entered
	stats     Stats

	// Telemetry instruments; nil (no-op) unless AttachTelemetry was called.
	mEnterTimeInc  *telemetry.Counter
	mIncSteps      *telemetry.Counter
	mDecSteps      *telemetry.Counter
	mReturnsNormal *telemetry.Counter
	mSlowTime      *telemetry.Histogram
	mOccupancy     [3]*telemetry.Counter // ns per Figure-4 state
}

// Enhance wraps inner with the enhancement mechanism. Use New for DCTCP+
// proper; Enhance exists for the §VII extension experiments (e.g. Reno-ECN
// plus the mechanism).
func Enhance(inner tcp.CongestionControl, cfg Config) *Enhancer { return Recycle(nil, inner, cfg) }

// Recycle is Enhance under the workload.FlowFactory recycle contract: old is
// the retiring connection's module (nil for a new connection). When it is an
// *Enhancer it is re-wrapped in place around inner — recycle the wrapped
// module first, from Unwrap(old) — and returned, the reset left to Init;
// anything else is left alone for a new Enhancer.
func Recycle(old, inner tcp.CongestionControl, cfg Config) *Enhancer {
	if err := cfg.Validate(); err != nil {
		panic("core: " + err.Error())
	}
	if inner == nil {
		panic("core: nil inner congestion control")
	}
	if e, ok := old.(*Enhancer); ok && e != nil {
		e.inner, e.cfg = inner, cfg
		return e
	}
	return &Enhancer{inner: inner, cfg: cfg}
}

// Unwrap returns the module an *Enhancer wraps, or nil for anything else —
// the old inner module a factory recycles before re-wrapping it.
func Unwrap(cc tcp.CongestionControl) tcp.CongestionControl {
	if e, ok := cc.(*Enhancer); ok && e != nil {
		return e.inner
	}
	return nil
}

// New returns DCTCP+: DCTCP with the enhancement mechanism. gain is the
// DCTCP EWMA gain (dctcp.DefaultGain for the paper's setting).
func New(gain float64, cfg Config) *Enhancer {
	return Enhance(dctcp.New(gain), cfg)
}

// Name returns the inner algorithm's name with a "+" suffix ("dctcp+").
func (e *Enhancer) Name() string { return e.inner.Name() + "+" }

// Inner returns the wrapped congestion-control module.
func (e *Enhancer) Inner() tcp.CongestionControl { return e.inner }

// State returns the current Figure-4 state.
func (e *Enhancer) State() State { return e.state }

// SlowTime returns the current sending time interval.
func (e *Enhancer) SlowTime() sim.Duration { return e.slowTime }

// Stats returns a snapshot of the state-machine counters.
func (e *Enhancer) Stats() Stats { return e.stats }

// Occupancy returns the time spent in each state up to now, including the
// currently open interval.
func (e *Enhancer) Occupancy(now sim.Time) [3]sim.Duration {
	occ := e.stats.Occupancy
	occ[e.state] += now.Sub(e.stateFrom)
	return occ
}

// setState transitions the machine, closing the occupancy interval of the
// previous state.
func (e *Enhancer) setState(s *tcp.Sender, next State) {
	now := s.Now()
	interval := now.Sub(e.stateFrom)
	e.stats.Occupancy[e.state] += interval
	e.mOccupancy[e.state].Add(int64(interval))
	e.stateFrom = now
	e.state = next
}

// AttachTelemetry registers the state machine's instruments on reg under
// the given labels: transition and AIMD-step counters, a slow_time
// histogram (observed in nanoseconds after every adjustment), and one
// occupancy counter (ns) per Figure-4 state. The inner congestion-control
// module is attached too when it supports telemetry. With a nil registry
// the instruments stay nil and every update is a no-op.
func (e *Enhancer) AttachTelemetry(reg *telemetry.Registry, labels ...telemetry.Label) {
	e.mEnterTimeInc = reg.Counter("core_enter_timeinc_total", labels...)
	e.mIncSteps = reg.Counter("core_slow_time_inc_steps_total", labels...)
	e.mDecSteps = reg.Counter("core_slow_time_dec_steps_total", labels...)
	e.mReturnsNormal = reg.Counter("core_returns_normal_total", labels...)
	e.mSlowTime = reg.Histogram("core_slow_time_ns", labels...)
	// One label set on the stack, its state label rewritten per state: the
	// registry copies labels only when it creates an instrument.
	var buf [8]telemetry.Label
	lbls := append(append(buf[:0], labels...), telemetry.Label{Key: "state"})
	for st := StateNormal; st <= StateTimeDes; st++ {
		lbls[len(lbls)-1].Value = st.String()
		e.mOccupancy[st] = reg.Counter("core_state_occupancy_ns", lbls...)
	}
	if a, ok := e.inner.(telemetry.Attacher); ok {
		a.AttachTelemetry(reg, labels...)
	}
}

// FlushTelemetry folds the currently open state-occupancy interval into
// both the stats and the occupancy counter, restarting the interval at now.
// Runners call it once at end-of-run so the dump accounts for every
// simulated nanosecond; Occupancy() remains consistent because the open
// interval is re-anchored, not double-counted.
func (e *Enhancer) FlushTelemetry(now sim.Time) {
	interval := now.Sub(e.stateFrom)
	if interval <= 0 {
		return
	}
	e.stats.Occupancy[e.state] += interval
	e.mOccupancy[e.state].Add(int64(interval))
	e.stateFrom = now
}

// ConfigUsed returns the enhancement configuration.
func (e *Enhancer) ConfigUsed() Config { return e.cfg }

// Init resets the state machine to its as-constructed state — DCTCP_NORMAL,
// slow_time zero, stats and instruments cleared; the inner module and the
// config are kept — anchors its clocks at the sender's start time, then
// resets the inner module. Senders are created mid-run (staggered incast
// arrivals, background flows); without the anchor, the first
// setState/Occupancy call would attribute all virtual time since t=0 to
// DCTCP_NORMAL occupancy, and the decay cadence would measure from the
// epoch instead of from the flow's start.
func (e *Enhancer) Init(s *tcp.Sender) {
	now := s.Now()
	*e = Enhancer{inner: e.inner, cfg: e.cfg, stateFrom: now, lastDecay: now}
	e.inner.Init(s)
}

// OnAck lets the inner module observe the ACK, then evaluates the state
// machine — the ndctcp_status_evolution() hook.
func (e *Enhancer) OnAck(s *tcp.Sender, acked int64, ece bool) {
	e.inner.OnAck(s, acked, ece)
	e.evolve(s, ece, false)
}

// SsthreshAfterECN delegates to the inner module.
func (e *Enhancer) SsthreshAfterECN(s *tcp.Sender) float64 {
	return e.inner.SsthreshAfterECN(s)
}

// SsthreshAfterLoss delegates to the inner module.
func (e *Enhancer) SsthreshAfterLoss(s *tcp.Sender) float64 {
	return e.inner.SsthreshAfterLoss(s)
}

// OnTimeout notifies the inner module, then evaluates the state machine
// with the retransmission condition set.
func (e *Enhancer) OnTimeout(s *tcp.Sender) {
	e.inner.OnTimeout(s)
	e.evolve(s, false, true)
}

// PacingDelay returns the sending time interval while the machine is
// engaged. With randomization on, each transmission's delay is drawn
// uniformly from [slow_time/2, 3*slow_time/2) — mean slow_time — so that
// concurrent flows whose slow_time values have converged to similar levels
// still inject packets at scattered instants (Fig. 3(c)); the sender
// caches one draw per packet. Without randomization (the Fig. 6 partial
// implementation) the delay is exactly slow_time.
func (e *Enhancer) PacingDelay(s *tcp.Sender) sim.Duration {
	if e.state == StateNormal {
		return e.inner.PacingDelay(s)
	}
	if e.cfg.Randomize && e.slowTime > 0 {
		return e.slowTime/2 + s.RNG().Duration(e.slowTime)
	}
	return e.slowTime
}

// CwndCap pins the window at its floor while the sending-time-interval
// regulation is engaged: in State-II and State-III the rate is governed by
// slow_time, and the window is by definition at its minimum ("when cwnd
// reaches to the minimum size, and the sender is required to further
// decrease its cwnd"). Growth resumes once the machine returns to
// DCTCP_NORMAL.
func (e *Enhancer) CwndCap(s *tcp.Sender) (float64, bool) {
	if e.state == StateNormal {
		if capper, ok := e.inner.(tcp.CwndCapper); ok {
			return capper.CwndCap(s)
		}
		return 0, false
	}
	return s.MinCwndMSS(), true
}

// backoffStep returns one additive slow_time increment: uniform in
// [0, BackoffUnit) when randomizing (the desynchronization mechanism),
// exactly BackoffUnit otherwise (Figure 6's partial implementation).
func (e *Enhancer) backoffStep(s *tcp.Sender) sim.Duration {
	if e.cfg.Randomize {
		return s.RNG().Duration(e.cfg.BackoffUnit)
	}
	return e.cfg.BackoffUnit
}

// divide applies the multiplicative decrease to slow_time, at most once
// per DecayInterval. It reports whether a decrease was applied. The one
// cadence rule covers every decrease, the one on entering DCTCP_Time_Des
// included: the gate measures from lastDecay, the time of the last
// decrease, which Init anchors at the flow's start so a decrease in the
// first DecayInterval of a flow waits too.
func (e *Enhancer) divide(s *tcp.Sender) bool {
	now := s.Now()
	if e.cfg.DecayInterval > 0 && now.Sub(e.lastDecay) < e.cfg.DecayInterval {
		return false
	}
	e.lastDecay = now
	e.slowTime = sim.Duration(float64(e.slowTime) / e.cfg.DivisorFactor)
	check.NonNegativeDur("core.slow_time after decrease", e.slowTime)
	e.stats.DecSteps++
	e.mDecSteps.Add(1)
	e.mSlowTime.Observe(int64(e.slowTime))
	return true
}

// increase applies one additive step and records the high-water mark.
func (e *Enhancer) increase(s *tcp.Sender) {
	e.slowTime += e.backoffStep(s)
	check.NonNegativeDur("core.slow_time after increase", e.slowTime)
	e.mIncSteps.Add(1)
	e.mSlowTime.Observe(int64(e.slowTime))
	if e.slowTime > e.stats.MaxSlowTime {
		e.stats.MaxSlowTime = e.slowTime
	}
}

// evolve is Algorithm 1: one state-machine step. Entering the mechanism
// from DCTCP_NORMAL requires both that the window has diminished to its
// floor and that congestion feedback keeps arriving (State-II's definition:
// "cwnd has diminished to the minimum value, and meanwhile the sender is
// notified to further decrease the sending rate"). Once engaged, the
// machine stays engaged on any congestion signal — ECN echo or timeout
// retransmission — even while the window floats slightly above the floor;
// slow_time, not the window, is the controlled variable in these states.
func (e *Enhancer) evolve(s *tcp.Sender, ece, retrans bool) {
	// Algorithm 1 invariants: slow_time is engaged only outside
	// DCTCP_NORMAL, and never negative.
	if e.state == StateNormal {
		check.ZeroDur("core.slow_time in DCTCP_NORMAL", e.slowTime)
	}
	check.NonNegativeDur("core.slow_time", e.slowTime)

	// Congestion signals: ECN echo, a timeout retransmission event, or an
	// ongoing loss-recovery episode ("retransmission after the timeout" —
	// while the sender is still repairing losses, every ACK confirms the
	// network asked it to slow down). The recovery clause is what lets a
	// timeout-heavy round pump slow_time up instead of decaying it during
	// the clean post-RTO drain.
	congested := ece || retrans || s.State() != tcp.StateOpen
	atFloor := s.CwndMSS() <= s.MinCwndMSS()

	switch e.state {
	case StateNormal:
		if congested && atFloor {
			e.setState(s, StateTimeInc)
			e.stats.EnterTimeInc++
			e.mEnterTimeInc.Add(1)
			e.slowTime = 0
			e.increase(s)
		}
	case StateTimeInc:
		if congested {
			e.increase(s)
		} else {
			e.setState(s, StateTimeDes)
			// Algorithm 1 decreases on the congestion-free ACK that ends
			// the build-up, under the same cadence as every later
			// decrease: it fires unless one already did within the last
			// DecayInterval.
			e.divide(s)
		}
	case StateTimeDes:
		switch {
		case congested:
			e.setState(s, StateTimeInc)
			e.stats.EnterTimeInc++
			e.mEnterTimeInc.Add(1)
			e.increase(s)
		case e.slowTime > e.cfg.ThresholdT:
			e.divide(s)
		default:
			e.setState(s, StateNormal)
			e.slowTime = 0
			e.stats.ReturnsNormal++
			e.mReturnsNormal.Add(1)
		}
	}
}

// SenderConfig returns the tcp.Config preset for DCTCP+ endpoints: precise
// ECN echo and — per the paper's footnote 3 — a window floor of 1 MSS for
// smoother rate changes.
func SenderConfig() tcp.Config {
	cfg := dctcp.Config()
	cfg.MinCwnd = 1
	return cfg
}
