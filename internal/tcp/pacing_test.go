package tcp

import (
	"testing"

	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
)

// pacedCC is a test congestion module with a fixed pacing gap and an
// optional growth cap.
type pacedCC struct {
	NewReno
	gap sim.Duration
	cap float64 // 0 = no cap
}

func (p *pacedCC) PacingDelay(*Sender) sim.Duration { return p.gap }
func (p *pacedCC) CwndCap(*Sender) (float64, bool)  { return p.cap, p.cap > 0 }

func TestPacingSpacesTransmissions(t *testing.T) {
	w := newWire(t)
	var arrivals []sim.Time
	prev := w.filter.mangle
	w.filter.mangle = func(p *packet.Packet) {
		if prev != nil {
			prev(p)
		}
		if p.IsData() {
			arrivals = append(arrivals, w.sched.Now())
		}
	}
	cfg := DefaultConfig()
	cfg.InitialCwnd = 8
	const gap = 500 * sim.Microsecond
	c := w.conn(cfg, &pacedCC{gap: gap})
	c.Sender.Send(6 * packet.MSS)
	w.sched.Run()
	if len(arrivals) != 6 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	for i := 1; i < len(arrivals); i++ {
		if d := arrivals[i].Sub(arrivals[i-1]); d < gap {
			t.Errorf("inter-arrival %d = %v, want >= %v", i, d, gap)
		}
	}
}

func TestPacingDelaysFirstPacketAfterIdle(t *testing.T) {
	// The kernel-hrtimer semantics: even the first packet of a fresh burst
	// waits the pacing delay — this is the desynchronization lever.
	w := newWire(t)
	var firstSend sim.Time = -1
	w.filter.mangle = func(p *packet.Packet) {
		if p.IsData() && firstSend < 0 {
			firstSend = w.sched.Now()
		}
	}
	const gap = 2 * sim.Millisecond
	c := w.conn(DefaultConfig(), &pacedCC{gap: gap})
	w.sched.After(sim.Duration(0), func() { c.Sender.Send(packet.MSS) })
	w.sched.Run()
	if firstSend < sim.Time(gap) {
		t.Errorf("first packet left at %v, want >= %v (paced from eligibility)", firstSend, gap)
	}
}

func TestUnpacedSendsImmediately(t *testing.T) {
	w := newWire(t)
	var firstSend sim.Time = -1
	w.filter.mangle = func(p *packet.Packet) {
		if p.IsData() && firstSend < 0 {
			firstSend = w.sched.Now()
		}
	}
	c := w.conn(DefaultConfig(), NewReno{})
	c.Sender.Send(packet.MSS)
	w.sched.Run()
	// Only serialization (12us) + filter hop: well under 100us.
	if firstSend > sim.Time(100*sim.Microsecond) {
		t.Errorf("unpaced first packet at %v", firstSend)
	}
}

func TestCwndCapFreezesGrowth(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig()
	cfg.InitialCwnd = 2
	c := w.conn(cfg, &pacedCC{cap: 2})
	c.Sender.Send(100 * packet.MSS)
	w.sched.Run()
	if !c.Sender.Done() {
		t.Fatal("transfer incomplete")
	}
	if got := c.Sender.CwndMSS(); got != 2 {
		t.Errorf("cwnd = %v, want frozen at cap 2", got)
	}
}

func TestCwndCapDoesNotForceReduction(t *testing.T) {
	// A cap below the current window freezes growth but must not shrink
	// the window by itself.
	w := newWire(t)
	cfg := DefaultConfig()
	cfg.InitialCwnd = 6
	c := w.conn(cfg, &pacedCC{cap: 2})
	c.Sender.Send(50 * packet.MSS)
	w.sched.Run()
	if got := c.Sender.CwndMSS(); got != 6 {
		t.Errorf("cwnd = %v, want unchanged 6", got)
	}
}

func TestSlowStartAfterIdleRestartsWindow(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig()
	cfg.MaxCwnd = 40
	c := w.conn(cfg, NewReno{})
	c.Sender.Send(200 * packet.MSS)
	w.sched.Run()
	grown := c.Sender.CwndMSS()
	if grown <= cfg.InitialCwnd {
		t.Fatalf("cwnd did not grow: %v", grown)
	}
	// Idle well past the RTO, then send again: the window must restart.
	w.sched.After(2*sim.Second, func() { c.Sender.Send(packet.MSS) })
	w.sched.Run()
	if got := c.Sender.CwndMSS(); got > cfg.InitialCwnd+1 {
		t.Errorf("cwnd after idle = %v, want restarted near %v", got, cfg.InitialCwnd)
	}
}

func TestNoRestartWithoutIdle(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig()
	cfg.MaxCwnd = 40
	c := w.conn(cfg, NewReno{})
	var cwndAtSecondSend float64
	count := 0
	c.Sender.OnComplete = func(int64) {
		count++
		if count == 1 {
			cwndAtSecondSend = c.Sender.CwndMSS()
			c.Sender.Send(10 * packet.MSS) // immediately: no idle
		}
	}
	c.Sender.Send(200 * packet.MSS)
	w.sched.Run()
	if c.Sender.CwndMSS() < cwndAtSecondSend {
		t.Errorf("window restarted without idle: %v -> %v",
			cwndAtSecondSend, c.Sender.CwndMSS())
	}
}

func TestGoBackNMarksRetransmissions(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig()
	cfg.RTOMin = 10 * sim.Millisecond
	cfg.InitialCwnd = 4
	cfg.DelAckCount = 1
	c := w.conn(cfg, NewReno{})
	// Lose the entire first window once.
	dropped := 0
	w.filter.drop = func(p *packet.Packet) bool {
		if p.IsData() && dropped < 4 && !p.Retransmit {
			dropped++
			return true
		}
		return false
	}
	var rtxSeqs []int64
	w.filter.mangle = func(p *packet.Packet) {
		if p.IsData() && p.Retransmit {
			rtxSeqs = append(rtxSeqs, p.Seq)
		}
	}
	c.Sender.Send(4 * packet.MSS)
	w.sched.Run()
	if !c.Sender.Done() {
		t.Fatal("incomplete")
	}
	if len(rtxSeqs) != 4 {
		t.Errorf("retransmitted %d segments (%v), want all 4 marked Retransmit", len(rtxSeqs), rtxSeqs)
	}
	if got := c.Sender.Stats().RetransPkts; got != 4 {
		t.Errorf("stats.RetransPkts = %d", got)
	}
}

func TestLimitedTransmitEnablesFastRetransmit(t *testing.T) {
	// cwnd=2, lose the 2nd segment: the ACK of the 1st grows the window to
	// 3 and releases two new segments, whose dupacks stall at 2 — below
	// DupThresh — so without limited transmit only the RTO would recover.
	// With it, the two probe segments produce the 3rd and 4th dupacks and
	// fast retransmit repairs the loss.
	w := newWire(t)
	cfg := DefaultConfig()
	cfg.InitialCwnd = 2
	cfg.DelAckCount = 1
	cfg.RTOMin = 10 * sim.Millisecond
	c := w.conn(cfg, NewReno{})
	w.filter.drop = dropSeqOnce(1 * packet.MSS)
	c.Sender.Send(20 * packet.MSS)
	w.sched.Run()
	if !c.Sender.Done() {
		t.Fatal("incomplete")
	}
	if st := c.Sender.Stats(); st.Timeouts != 0 || st.FastRecoveries != 1 {
		t.Errorf("timeouts=%d recoveries=%d, want 0/1", st.Timeouts, st.FastRecoveries)
	}
}

func TestLimitedTransmitCannotSaveMinimumWindow(t *testing.T) {
	// The paper's point: at a 2-MSS window with nothing left to send,
	// limited transmit has no new data to probe with — the loss still
	// costs an RTO. Send exactly 2 segments and drop the first.
	w := newWire(t)
	cfg := DefaultConfig()
	cfg.InitialCwnd = 2
	cfg.DelAckCount = 1
	cfg.RTOMin = 10 * sim.Millisecond
	c := w.conn(cfg, NewReno{})
	w.filter.drop = dropSeqOnce(0)
	c.Sender.Send(2 * packet.MSS)
	w.sched.Run()
	if !c.Sender.Done() {
		t.Fatal("incomplete")
	}
	st := c.Sender.Stats()
	if st.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1 despite limited transmit", st.Timeouts)
	}
}

func TestECELatchVisibleToSender(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig()
	cfg.ECN = ECNClassic
	c := w.conn(cfg, NewReno{})
	if c.Sender.LastAckECE() {
		t.Error("fresh sender reports ECE")
	}
	w.filter.mangle = func(p *packet.Packet) {
		if p.IsData() && p.ECN == packet.ECT {
			p.ECN = packet.CE
		}
	}
	c.Sender.Send(4 * packet.MSS)
	w.sched.Run()
	if !c.Sender.LastAckECE() {
		t.Error("ECE never surfaced at sender")
	}
}
