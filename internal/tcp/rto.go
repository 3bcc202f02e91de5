package tcp

import "dctcpplus/internal/sim"

// rttEstimator implements RFC 6298 smoothed RTT estimation:
//
//	SRTT    <- (1-1/8) SRTT + 1/8 R'
//	RTTVAR  <- (1-1/4) RTTVAR + 1/4 |SRTT - R'|
//	RTO     <- SRTT + max(G, 4*RTTVAR), clamped to [RTOMin, RTOMax]
//
// Only segments transmitted exactly once are sampled (Karn's algorithm);
// the sender enforces that by invalidating the pending sample whenever the
// timed sequence range is retransmitted.
type rttEstimator struct {
	srtt    sim.Duration
	rttvar  sim.Duration
	hasInit bool

	rtoMin, rtoMax, rtoInit sim.Duration
}

func newRTTEstimator(cfg Config) rttEstimator {
	return rttEstimator{rtoMin: cfg.RTOMin, rtoMax: cfg.RTOMax, rtoInit: cfg.RTOInit}
}

// Sample folds a fresh RTT measurement into the estimator.
func (e *rttEstimator) Sample(rtt sim.Duration) {
	if rtt <= 0 {
		rtt = 1
	}
	if !e.hasInit {
		e.srtt = rtt
		e.rttvar = rtt / 2
		e.hasInit = true
		return
	}
	diff := e.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	e.rttvar = (3*e.rttvar + diff) / 4
	e.srtt = (7*e.srtt + rtt) / 8
}

// RTO returns the current retransmission timeout (without backoff).
func (e *rttEstimator) RTO() sim.Duration {
	if !e.hasInit {
		rto := e.rtoInit
		if rto < e.rtoMin {
			rto = e.rtoMin
		}
		return rto
	}
	rto := e.srtt + 4*e.rttvar
	if rto < e.rtoMin {
		rto = e.rtoMin
	}
	if rto > e.rtoMax {
		rto = e.rtoMax
	}
	return rto
}

// SRTT returns the smoothed RTT (0 before the first sample).
func (e *rttEstimator) SRTT() sim.Duration { return e.srtt }

// HasSample reports whether at least one RTT measurement was folded in.
func (e *rttEstimator) HasSample() bool { return e.hasInit }
