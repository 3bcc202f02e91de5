package tcp

import (
	"testing"

	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
)

// rtoScenario drives a live connection into a genuine RTO: the wire drops
// every data segment once sndUna passes 4 MSS, and re-opens when the first
// timeout fires, leaving the sender to repair via go-back-N. onRTO runs
// inside the first Timeout record (before the rewind, so SndNxt() is still
// the pre-RTO frontier); onProbe sees every ACK after it.
func rtoScenario(t *testing.T, onRTO func(s *Sender), onProbe func(s *Sender)) (*wire, *Sender) {
	t.Helper()
	w := newWire(t)
	cfg := DefaultConfig()
	cfg.DelAckCount = 1
	c := w.conn(cfg, NewReno{})
	snd := c.Sender

	dropping := false
	w.filter.drop = func(p *packet.Packet) bool { return dropping && p.IsData() }

	rtoFired := false
	onAck(snd, func() {
		if !rtoFired {
			if !dropping && snd.SndUna() >= 4*packet.MSS {
				dropping = true
			}
			return
		}
		onProbe(snd)
	})
	onTimeout(snd, func(TimeoutKind) {
		if rtoFired {
			return
		}
		rtoFired = true
		dropping = false // let the go-back-N repair traffic through
		onRTO(snd)
	})
	snd.Send(64 * packet.MSS)
	w.sched.RunUntil(sim.Time(10 * sim.Second))
	if !rtoFired {
		t.Fatal("no RTO fired; the scenario never exercised the backoff")
	}
	return w, snd
}

// Regression (ISSUE 9 satellite 2, failing-before): RFC 6298 §5.5-5.7 with
// Karn's algorithm — the exponential backoff may be cleared only by an RTT
// sample taken from a segment transmitted exactly once. Before the fix the
// sender zeroed rtoBackoff on *every* ACK that advanced sndUna, including
// the cumulative ACKs covering nothing but go-back-N repair traffic, so one
// surviving repair ACK collapsed the backoff while the path was still in
// the exact state that caused the timeout.
func TestBackoffPersistsAcrossRetransmittedAcks(t *testing.T) {
	var high int64 // pre-RTO send frontier: ACKs below it cover only retransmitted data
	repairProbes := 0
	minBackoff := ^uint(0)
	_, snd := rtoScenario(t,
		func(s *Sender) { high = s.SndNxt() },
		func(s *Sender) {
			if s.SndUna() < high {
				repairProbes++
				if s.RTOBackoff() < minBackoff {
					minBackoff = s.RTOBackoff()
				}
			}
		})
	if repairProbes == 0 {
		t.Fatal("no ACKs covering only retransmitted data observed")
	}
	if minBackoff < 1 {
		t.Errorf("backoff dropped to %d during go-back-N repair; ACKs of retransmitted data must not clear it", minBackoff)
	}
	// Once a fresh (never-retransmitted) segment past the old frontier is
	// timed and acknowledged, the backoff must clear.
	if !snd.Done() {
		t.Fatal("transfer did not complete")
	}
	if got := snd.RTOBackoff(); got != 0 {
		t.Errorf("backoff = %d after fresh RTT sample, want 0", got)
	}
}

// Companion regression, the other RFC 6298 direction: SRTT/RTTVAR must not
// take samples from retransmitted segments (their ACK time is ambiguous
// between the original and the retransmission — Karn). During the repair
// phase every in-flight timed sample has been invalidated, so the smoothed
// RTT must stay frozen until a fresh segment past the old frontier is timed
// and acknowledged.
func TestSRTTFrozenDuringRetransmitRepair(t *testing.T) {
	var high int64
	var srttAtRTO sim.Duration
	resampled := false
	_, snd := rtoScenario(t,
		func(s *Sender) { high, srttAtRTO = s.SndNxt(), s.SRTT() },
		func(s *Sender) {
			if s.SndUna() < high {
				if s.SRTT() != srttAtRTO {
					t.Errorf("SRTT moved %v -> %v on an ACK of retransmitted data (snd_una %d < frontier %d)",
						srttAtRTO, s.SRTT(), s.SndUna(), high)
				}
			} else if s.SRTT() != srttAtRTO {
				resampled = true
			}
		})
	if srttAtRTO == 0 {
		t.Fatal("no RTT samples before the RTO; scenario broken")
	}
	if !snd.Done() {
		t.Fatal("transfer did not complete")
	}
	if !resampled {
		t.Error("RTT sampling never resumed from fresh segments after the repair")
	}
}
