// Package tcp implements the transport engine the DCTCP+ experiments run
// on: a packet-level TCP with slow start, congestion avoidance, NewReno
// fast retransmit/recovery, RFC 6298 retransmission timeouts with a
// configurable minimum (the paper evaluates RTOmin of 200ms and 10ms),
// delayed ACKs, and ECN in both classic (RFC 3168) and DCTCP precise-echo
// modes. Congestion control is pluggable in the style of Linux's CC
// modules; package dctcp and package core provide the DCTCP and DCTCP+
// algorithms, and this package provides NewReno itself.
//
// The engine also classifies every retransmission timeout into the two
// categories the paper's Table I reports — FLoss-TO (the whole window was
// lost, so no feedback at all returned) and LAck-TO (feedback returned but
// fewer than DupThresh duplicate ACKs, so fast retransmit could not
// trigger) — following Zhang et al. [12].
package tcp

import "dctcpplus/internal/sim"

// ECNMode selects how the connection uses ECN.
type ECNMode int

const (
	// ECNOff sends NotECT traffic; switches tail-drop instead of marking.
	ECNOff ECNMode = iota
	// ECNClassic implements RFC 3168: the receiver latches ECN-Echo from
	// the first CE mark until the sender's CWR arrives; the sender reacts
	// at most once per window.
	ECNClassic
	// ECNPrecise implements DCTCP's ACK semantics: the receiver echoes the
	// exact sequence of CE marks using the two-state delayed-ACK machine
	// from the DCTCP paper, so the sender can estimate the marked fraction.
	ECNPrecise
)

func (m ECNMode) String() string {
	switch m {
	case ECNOff:
		return "off"
	case ECNClassic:
		return "rfc3168"
	case ECNPrecise:
		return "dctcp"
	}
	return "?"
}

// The paper's timeout analysis (§III, Table I) assumes one fixed Linux-era
// transport; these are its settings that no experiment varies. Limited
// transmit and the restart after idle are likewise always on (see Sender).
const (
	// DupThresh is the duplicate-ACK threshold for fast retransmit.
	DupThresh = 3
	// RTOMax clamps the exponential backoff from above.
	RTOMax = 4 * sim.Second
	// RTOSlack adds a uniform random delay in [0, RTOSlack) to every
	// retransmission-timer arming, modeling OS timer-tick quantization and
	// timer slack (jiffies on the paper's 2.6-era kernels). Without it, a
	// deterministic simulation can phase-lock cohorts of timed-out flows:
	// they all retransmit at exactly the same instant, collide at the
	// bottleneck, and back off in lockstep forever — a livelock no real
	// testbed exhibits because independent hosts' timer ticks are not
	// aligned.
	RTOSlack = 1 * sim.Millisecond
	// DelAckTimeout flushes a pending delayed ACK.
	DelAckTimeout = 40 * sim.Millisecond
)

// Config carries the per-connection transport parameters experiments vary.
// The zero value is not usable; start from DefaultConfig.
type Config struct {
	// InitialCwnd is the initial congestion window in MSS units.
	//inv: InitialCwnd >= 1
	InitialCwnd float64

	// MinCwnd is the congestion window floor in MSS units for ECN/loss
	// reductions (Eq. 2's W >= 2MSS). Retransmission timeouts still
	// collapse cwnd to 1 MSS, as in Linux; the paper uses cwnd=1 samples
	// as its timeout indicator. DCTCP+ lowers this floor to 1 MSS
	// (footnote 3) for smoother rate changes.
	//inv: MinCwnd >= 1
	MinCwnd float64

	// MaxCwnd caps the window in MSS units (the receiver window stand-in).
	//inv: MaxCwnd >= 1
	MaxCwnd float64

	// RTOMin clamps the retransmission timeout from below and is the
	// timeout used before the first RTT sample. Default 200ms (the Linux
	// default the paper highlights); the comparison experiments set 10ms.
	RTOMin sim.Duration

	// DelAckCount acknowledges every n-th in-order segment (Linux default
	// behaviour is 2). 1 disables delayed ACKs.
	//inv: DelAckCount >= 1
	DelAckCount int

	// ECN selects the ECN feedback mode (see ECNMode).
	ECN ECNMode

	// Seed parameterizes the connection's private random stream (used by
	// randomized congestion control such as DCTCP+'s slow_time backoff).
	Seed uint64
}

// DefaultConfig returns parameters matching the paper's testbed senders:
// standard Linux-era TCP with IW=2, min cwnd 2 MSS, delayed ACKs of 2,
// RTOmin 200ms.
func DefaultConfig() Config {
	return Config{
		InitialCwnd: 2,
		MinCwnd:     2,
		MaxCwnd:     64,
		RTOMin:      200 * sim.Millisecond,
		DelAckCount: 2,
	}
}

// validate panics on nonsensical configurations; these are always
// programming errors in experiment setup.
func (c Config) validate() {
	switch {
	case c.InitialCwnd < 1:
		panic("tcp: InitialCwnd must be >= 1 MSS")
	case c.MinCwnd < 1:
		panic("tcp: MinCwnd must be >= 1 MSS")
	case c.MaxCwnd < c.InitialCwnd:
		panic("tcp: MaxCwnd must be >= InitialCwnd")
	case c.RTOMin <= 0 || c.RTOMin > RTOMax:
		panic("tcp: invalid RTO bounds")
	case c.DelAckCount < 1:
		panic("tcp: DelAckCount must be >= 1")
	}
}

// TimeoutKind is the taxonomy of retransmission timeouts from Zhang et al.
// [12], as used in the paper's Table I.
type TimeoutKind int

const (
	// FLossTO: full-window loss — the sender received no feedback at all
	// for the outstanding window, so only the RTO could recover.
	FLossTO TimeoutKind = iota
	// LAckTO: lack of ACKs — some feedback arrived but fewer than
	// DupThresh duplicate ACKs, so data-driven recovery never triggered.
	LAckTO
)

func (k TimeoutKind) String() string {
	if k == FLossTO {
		return "FLoss-TO"
	}
	return "LAck-TO"
}
