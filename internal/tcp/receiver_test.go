package tcp

import (
	"sort"
	"testing"
	"testing/quick"

	"dctcpplus/internal/netsim"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
)

func TestDelayedAckCoalescing(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig() // DelAckCount = 2
	cfg.InitialCwnd = 8
	c := w.conn(cfg, NewReno{})
	c.Sender.Send(8 * packet.MSS)
	w.sched.Run()
	rst := c.Receiver.Stats()
	// 8 in-order segments, acked in pairs -> ~4 ACKs, certainly fewer than 8.
	if rst.AcksOut >= rst.SegsIn {
		t.Errorf("acks=%d segs=%d: delayed ACKs not coalescing", rst.AcksOut, rst.SegsIn)
	}
	if rst.DeliveredByte != 8*packet.MSS {
		t.Errorf("delivered %d", rst.DeliveredByte)
	}
}

func TestDelAckTimerFlushesOddSegment(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig()
	cfg.InitialCwnd = 3
	c := w.conn(cfg, NewReno{})
	done := false
	var when sim.Time
	c.Sender.OnComplete = func(int64) { done, when = true, w.sched.Now() }
	// 3 segments: the 3rd waits on the 40ms delack timer.
	c.Sender.Send(3 * packet.MSS)
	w.sched.Run()
	if !done {
		t.Fatal("did not complete")
	}
	if when < sim.Time(DelAckTimeout) {
		t.Errorf("completed at %v, expected to wait for delack timer (~%v)", when, DelAckTimeout)
	}
	if c.Receiver.Stats().DelayedAcks == 0 {
		t.Error("no delayed ACKs counted")
	}
}

func TestDelAckCount1AcksEverySegment(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig()
	cfg.DelAckCount = 1
	cfg.InitialCwnd = 4
	c := w.conn(cfg, NewReno{})
	c.Sender.Send(4 * packet.MSS)
	w.sched.Run()
	rst := c.Receiver.Stats()
	if rst.AcksOut != rst.SegsIn {
		t.Errorf("acks=%d segs=%d with DelAckCount=1", rst.AcksOut, rst.SegsIn)
	}
}

func TestOutOfOrderGeneratesImmediateDupAcks(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig()
	cfg.InitialCwnd = 8
	cfg.DelAckCount = 1
	c := w.conn(cfg, NewReno{})
	w.filter.drop = dropSeqOnce(0) // first segment lost: everything after is OOO
	c.Sender.Send(8 * packet.MSS)
	w.sched.Run()
	rst := c.Receiver.Stats()
	if rst.OutOfOrder == 0 {
		t.Fatal("no out-of-order segments observed")
	}
	if rst.ImmediateAcks < rst.OutOfOrder {
		t.Errorf("immediate acks %d < ooo %d", rst.ImmediateAcks, rst.OutOfOrder)
	}
	if rst.DeliveredByte != 8*packet.MSS {
		t.Errorf("delivered %d", rst.DeliveredByte)
	}
}

func TestReceiverIgnoresNonData(t *testing.T) {
	w := newWire(t)
	c := w.conn(DefaultConfig(), NewReno{})
	// A stray pure ACK routed to the receiver must be ignored.
	c.Receiver.Deliver(&packet.Packet{Flags: packet.FlagACK, AckNo: 99})
	if c.Receiver.RcvNxt() != 0 || c.Receiver.Stats().SegsIn != 0 {
		t.Error("receiver consumed a non-data packet")
	}
}

// deliverRaw injects a data segment directly into the receiver (bypassing
// the network) and captures ACKs emitted to the wire via the sender host's
// unclaimed hook... Instead we capture ACKs at host a by a probe flow.
func TestPreciseEchoStateMachine(t *testing.T) {
	// Build a receiver whose ACKs we can capture directly.
	s := sim.NewScheduler()
	type ackRec struct {
		ackNo int64
		ece   bool
	}
	var acks []ackRec
	hostA := newCaptureHost(s, 1, func(p *packet.Packet) {
		if p.Flags.Has(packet.FlagACK) {
			acks = append(acks, ackRec{p.AckNo, p.Flags.Has(packet.FlagECE)})
		}
	})
	hostB := newLoopHost(s, 2, hostA)

	cfg := DefaultConfig()
	cfg.ECN = ECNPrecise
	cfg.DelAckCount = 2
	r := NewReceiver(cfg, hostB.Host, 1, 5)

	seg := func(i int, ce bool) *packet.Packet {
		e := packet.ECT
		if ce {
			e = packet.CE
		}
		return &packet.Packet{Dst: 2, Flow: 5, Seq: int64(i * packet.MSS), Payload: packet.MSS, ECN: e}
	}
	// Sequence of CE marks: 0:off 1:off 2:ON 3:ON 4:off ...
	// seg0: pending=1. seg1: delack fires -> ACK(2 MSS, ECE=0).
	// seg2 (CE): state change with pending=0 -> no flush; pending=1.
	// seg3 (CE): delack -> ACK(4 MSS, ECE=1).
	// seg4 (off): state change, pending=0 -> no flush. pending=1.
	// seg5 (CE): state change with pending=1 -> immediate ACK(5 MSS, ECE=0)
	//            carrying the OLD state; then seg5 pends under CE and the
	//            delayed-ACK timer finally flushes ACK(6 MSS, ECE=1).
	for i, ce := range []bool{false, false, true, true, false, true} {
		r.Deliver(seg(i, ce))
	}
	s.Run()
	if len(acks) != 4 {
		t.Fatalf("acks = %+v, want 4", acks)
	}
	want := []ackRec{
		{2 * packet.MSS, false},
		{4 * packet.MSS, true},
		{5 * packet.MSS, false}, // flush carries the OLD state
		{6 * packet.MSS, true},  // delack timer, new state
	}
	for i := range want {
		if acks[i] != want[i] {
			t.Errorf("ack[%d] = %+v, want %+v", i, acks[i], want[i])
		}
	}
	if r.Stats().CEMarksSeen != 3 {
		t.Errorf("CE seen = %d, want 3", r.Stats().CEMarksSeen)
	}
}

func TestClassicEchoLatchUntilCWR(t *testing.T) {
	s := sim.NewScheduler()
	var eces []bool
	hostA := newCaptureHost(s, 1, func(p *packet.Packet) {
		if p.Flags.Has(packet.FlagACK) {
			eces = append(eces, p.Flags.Has(packet.FlagECE))
		}
	})
	hostB := newLoopHost(s, 2, hostA)

	cfg := DefaultConfig()
	cfg.ECN = ECNClassic
	cfg.DelAckCount = 1 // one ACK per segment for a crisp trace
	r := NewReceiver(cfg, hostB.Host, 1, 5)

	mk := func(i int, e packet.ECN, fl packet.Flags) *packet.Packet {
		return &packet.Packet{Dst: 2, Flow: 5, Seq: int64(i * packet.MSS),
			Payload: packet.MSS, ECN: e, Flags: fl}
	}
	r.Deliver(mk(0, packet.ECT, 0))              // ECE=0
	r.Deliver(mk(1, packet.CE, 0))               // latch -> ECE=1
	r.Deliver(mk(2, packet.ECT, 0))              // still latched -> ECE=1
	r.Deliver(mk(3, packet.ECT, packet.FlagCWR)) // CWR clears -> ECE=0
	r.Deliver(mk(4, packet.CE, packet.FlagCWR))  // CWR processed first, CE re-latches -> ECE=1
	s.Run()
	want := []bool{false, true, true, false, true}
	if len(eces) != len(want) {
		t.Fatalf("ece trace = %v", eces)
	}
	for i := range want {
		if eces[i] != want[i] {
			t.Errorf("ece[%d] = %v, want %v (trace %v)", i, eces[i], want[i], eces)
		}
	}
}

// Property: insertOOO always yields sorted, disjoint intervals covering
// exactly the union of inserted ranges, and every byte carries the CE state
// of its *first* arrival (first-arrival-wins; adjacent intervals only merge
// when their CE states match).
func TestInsertOOOProperty(t *testing.T) {
	f := func(pairs []uint8) bool {
		r := &Receiver{}
		covered := map[int64]bool{} // byte -> first-arrival CE state
		for i := 0; i+1 < len(pairs); i += 2 {
			lo := int64(pairs[i] % 64)
			ln := int64(pairs[i+1]%16) + 1
			ce := pairs[i]&0x80 != 0
			r.insertOOO(lo, lo+ln, ce)
			for b := lo; b < lo+ln; b++ {
				if _, ok := covered[b]; !ok {
					covered[b] = ce
				}
			}
		}
		// Disjoint and sorted.
		for i := 0; i < len(r.ooo); i++ {
			if r.ooo[i].lo >= r.ooo[i].hi {
				return false
			}
			if i > 0 && r.ooo[i].lo < r.ooo[i-1].hi {
				return false
			}
		}
		// Union and per-byte CE states match.
		var got []int64
		for _, iv := range r.ooo {
			for b := iv.lo; b < iv.hi; b++ {
				got = append(got, b)
				if want, ok := covered[b]; !ok || iv.ce != want {
					return false
				}
			}
		}
		if len(got) != len(covered) {
			return false
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		for _, b := range got {
			if _, ok := covered[b]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAdvanceToAbsorbsBufferedIntervals(t *testing.T) {
	r := &Receiver{}
	r.insertOOO(10, 20, false)
	r.insertOOO(20, 30, false) // merges with previous
	r.insertOOO(50, 60, false)
	if len(r.ooo) != 2 {
		t.Fatalf("ooo = %+v, want 2 merged intervals", r.ooo)
	}
	n := r.advanceTo(10, false) // contiguous with [10,30): should jump to 30
	if r.rcvNxt != 30 || n != 30 {
		t.Errorf("rcvNxt = %d (advanced %d), want 30", r.rcvNxt, n)
	}
	if len(r.ooo) != 1 || r.ooo[0].lo != 50 {
		t.Errorf("remaining ooo = %+v", r.ooo)
	}
}

func TestAdvanceToBuildsCEUniformRuns(t *testing.T) {
	r := &Receiver{}
	r.insertOOO(10, 20, true)  // CE-marked bytes buffered behind the hole
	r.insertOOO(20, 30, false) // distinct CE state: must NOT merge
	if len(r.ooo) != 2 {
		t.Fatalf("ooo = %+v, want 2 CE-distinct intervals", r.ooo)
	}
	// Unmarked retransmission [0,10) fills the hole: runs must be
	// [0,10) ce=0, [10,20) ce=1, [20,30) ce=0.
	n := r.advanceTo(10, false)
	if r.rcvNxt != 30 || n != 30 {
		t.Fatalf("rcvNxt = %d (advanced %d), want 30", r.rcvNxt, n)
	}
	want := []ackRun{{10, false}, {20, true}, {30, false}}
	if len(r.ackRuns) != len(want) {
		t.Fatalf("ackRuns = %+v, want %+v", r.ackRuns, want)
	}
	for i := range want {
		if r.ackRuns[i] != want[i] {
			t.Errorf("ackRuns[%d] = %+v, want %+v", i, r.ackRuns[i], want[i])
		}
	}
}

// Regression (ISSUE 9 satellite 1): before the fix, a hole fill that made a
// mixed CE/non-CE range in-order sent ONE cumulative ACK whose ECE bit came
// from the flip machine's last-segment state, silently attributing every
// byte of the range to that one state. Under DCTCP precise echo this
// corrupts the sender's marked-byte fraction (α). The precise-echo machine
// requires one ACK per CE-state flip, so the fill must emit one cumulative
// ACK per CE-uniform run.
func TestPreciseEchoHoleFillSplitsMixedCERuns(t *testing.T) {
	s := sim.NewScheduler()
	type ackRec struct {
		ackNo int64
		ece   bool
	}
	var acks []ackRec
	hostA := newCaptureHost(s, 1, func(p *packet.Packet) {
		if p.Flags.Has(packet.FlagACK) {
			acks = append(acks, ackRec{p.AckNo, p.Flags.Has(packet.FlagECE)})
		}
	})
	hostB := newLoopHost(s, 2, hostA)

	cfg := DefaultConfig()
	cfg.ECN = ECNPrecise
	cfg.DelAckCount = 1
	r := NewReceiver(cfg, hostB.Host, 1, 5)

	seg := func(i int, ce bool) *packet.Packet {
		e := packet.ECT
		if ce {
			e = packet.CE
		}
		return &packet.Packet{Dst: 2, Flow: 5, Seq: int64(i * packet.MSS), Payload: packet.MSS, ECN: e}
	}
	r.Deliver(seg(0, false)) // in-order, unmarked -> ACK(1 MSS, ECE=0)
	r.Deliver(seg(2, true))  // OOO, CE-marked   -> dup ACK(1 MSS, ECE=1)
	r.Deliver(seg(3, true))  // OOO, CE-marked   -> dup ACK(1 MSS, ECE=1)
	r.Deliver(seg(1, false)) // unmarked retransmission fills the hole
	s.Run()
	// The fill makes [MSS, 4 MSS) in-order: [MSS, 2 MSS) unmarked plus
	// [2 MSS, 4 MSS) CE-marked. One ACK per CE-uniform run:
	//   ACK(2 MSS, ECE=0) then ACK(4 MSS, ECE=1).
	// The buggy receiver emitted a single ACK(4 MSS) instead, so 2 MSS of
	// marked bytes inherited whatever the flip machine last latched.
	want := []ackRec{
		{1 * packet.MSS, false},
		{1 * packet.MSS, true},
		{1 * packet.MSS, true},
		{2 * packet.MSS, false},
		{4 * packet.MSS, true},
	}
	if len(acks) != len(want) {
		t.Fatalf("acks = %+v, want %+v", acks, want)
	}
	for i := range want {
		if acks[i] != want[i] {
			t.Errorf("ack[%d] = %+v, want %+v", i, acks[i], want[i])
		}
	}
	if !r.ceState {
		t.Error("ceState must end true (last run was CE-marked)")
	}
	if r.RcvNxt() != 4*packet.MSS {
		t.Errorf("rcvNxt = %d", r.RcvNxt())
	}
}

// captureHost is a bare netsim.Node that inspects everything delivered to
// it; loopHost is a real netsim host whose uplink points at the capture
// node, so a Receiver's ACKs can be observed directly.
type captureHost struct {
	id packet.NodeID
	fn func(*packet.Packet)
}

func (h *captureHost) ID() packet.NodeID        { return h.id }
func (h *captureHost) Deliver(p *packet.Packet) { h.fn(p) }

func newCaptureHost(_ *sim.Scheduler, id packet.NodeID, fn func(*packet.Packet)) *captureHost {
	return &captureHost{id: id, fn: fn}
}

type loopHost struct{ Host *netsim.Host }

func newLoopHost(s *sim.Scheduler, id packet.NodeID, to *captureHost) *loopHost {
	h := netsim.NewHost(s, id, "loop")
	h.SetUplink(netsim.NewPort(s, netsim.NewLink(s, to, 1_000_000_000, 0),
		netsim.PortConfig{BufferBytes: 1 << 20}))
	return &loopHost{Host: h}
}
