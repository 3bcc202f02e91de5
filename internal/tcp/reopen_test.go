package tcp

import (
	"fmt"
	"strings"
	"testing"

	"dctcpplus/internal/obs"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/resetcheck"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/telemetry"
)

// The keep-lists: the fields open carries across a Reopen instead of
// resetting. Everything else must come out of Reopen exactly as it comes
// out of NewConn.
var (
	senderKeeps   = []string{"rtoTimer", "pumpFn"}
	receiverKeeps = []string{"delackTimer", "ooo", "ackRuns"}
)

// TestReopenEqualsFresh: a connection that has lived — a transfer with
// reordering, a timeout, every hook, sink subscriber and telemetry
// instrument attached — is closed and reopened; outside the keep-list, every
// field of both endpoints must then equal a freshly constructed twin's, and
// the first life's subscribers hear nothing of the second. A field added
// later that outlives Close fails here by name until open resets it or the
// keep-list takes it.
func TestReopenEqualsFresh(t *testing.T) {
	w := newWire(t)
	// Lose a mid-window segment (reassembly at the receiver, duplicate ACKs
	// at the sender) and the lone tail of the second Send (nothing behind it
	// to raise duplicate ACKs: only the RTO recovers it).
	const first = 16 * packet.MSS
	w.filter.drop = dropSeqOnce(3*packet.MSS, first)
	cfg := DefaultConfig()
	cfg.RTOMin = 10 * sim.Millisecond
	cfg.Seed = 11
	c := w.conn(cfg, NewReno{})
	c.Sender.AttachTelemetry(telemetry.NewRegistry())
	c.Sender.OnComplete = func(int64) {}
	c.Receiver.OnData = func(int64) {}
	records := 0
	count := func(obs.Record, *packet.Packet) { records++ }
	c.Sender.Sink.Subscribe(new(obs.Sub), count)
	c.Receiver.Sink.Subscribe(new(obs.Sub), count)
	c.Sender.Send(first)
	w.sched.Run()
	c.Sender.Send(100)
	w.sched.Run()
	if st := c.Sender.Stats(); !c.Sender.Done() || st.Timeouts == 0 || st.DupAcks == 0 {
		t.Fatalf("first life too quiet to dirty the connection: done=%v stats=%+v", c.Sender.Done(), st)
	}
	// Then close it mid-recovery: a hole at the receiver with segments
	// buffered behind it, the RTO armed.
	w.filter.drop = dropSeqOnce(c.Sender.TotalBytes())
	c.Sender.Send(first)
	w.sched.RunFor(300 * sim.Microsecond)
	if len(c.Receiver.ooo) == 0 || !c.Sender.rtoTimer.Armed() || c.Sender.Done() {
		t.Fatalf("not mid-recovery at Close: ooo=%v rto armed=%v done=%v",
			c.Receiver.ooo, c.Sender.rtoTimer.Armed(), c.Sender.Done())
	}
	oooCap, runsCap := cap(c.Receiver.ooo), cap(c.Receiver.ackRuns)
	firstLife := records
	c.Close()

	cfg2 := cfg
	cfg2.Seed, cfg2.ECN, cfg2.MaxCwnd = 12, ECNPrecise, 32
	twin := NewConn(cfg2, NewReno{}, w.a, w.b, 8)
	wantS, wantR := *twin.Sender, *twin.Receiver
	twin.Close()

	c.Reopen(cfg2, NewReno{}, w.a, w.b, 8)
	gotS, gotR := *c.Sender, *c.Receiver
	resetcheck.Diff(t, &gotS, &wantS, senderKeeps...)
	resetcheck.Diff(t, &gotR, &wantR, receiverKeeps...)

	// What is kept is kept in its idle state.
	if c.Sender.rtoTimer.Armed() || c.Receiver.delackTimer.Armed() {
		t.Error("a timer is armed straight after Reopen")
	}
	if len(c.Receiver.ooo) != 0 || len(c.Receiver.ackRuns) != 0 {
		t.Errorf("reassembly state survives Reopen: ooo=%v ackRuns=%v", c.Receiver.ooo, c.Receiver.ackRuns)
	}
	if cap(c.Receiver.ooo) != oooCap || cap(c.Receiver.ackRuns) != runsCap {
		t.Errorf("scratch capacity not kept: ooo %d -> %d, ackRuns %d -> %d",
			oooCap, cap(c.Receiver.ooo), runsCap, cap(c.Receiver.ackRuns))
	}

	// And the second life works, with the kept timers and pacing callback
	// serving the new flow: lose its lone segment so only the RTO recovers.
	w.filter.drop = dropSeqOnce(0)
	done := false
	c.Sender.OnComplete = func(int64) { done = true }
	c.Sender.Send(100)
	w.sched.Run()
	if st := c.Sender.Stats(); !done || st.Timeouts == 0 || c.Receiver.Stats().DeliveredByte != 100 {
		t.Fatalf("second life: done=%v stats=%+v, want the lost segment recovered by the RTO", done, st)
	}
	if firstLife == 0 || records != firstLife {
		t.Errorf("subscribers saw %d records in the first life and %d in the second, want some and none",
			firstLife, records-firstLife)
	}
}

// TestCloseDisarmsDelayedAck: a rig closes every connection mid-state at
// the end of a job, so Close must disarm a pending delayed ACK. With
// DelAckCount 2 and one segment in, the timer is armed; after Close it must
// not be, and running the scheduler on must emit no ACK — a stale expiry
// would send one for a flow that no longer exists (and, across a scheduler
// reset, cancel a recycled event).
func TestCloseDisarmsDelayedAck(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig()
	cfg.DelAckCount = 2
	c := w.conn(cfg, NewReno{})
	c.Sender.Send(packet.MSS)
	for c.Receiver.Stats().SegsIn == 0 && w.sched.Step() {
	}
	if !c.Receiver.delackTimer.Armed() || c.Receiver.pendingSegs != 1 {
		t.Fatalf("one segment in: delayed-ACK armed=%v pending=%d, want armed with 1 pending",
			c.Receiver.delackTimer.Armed(), c.Receiver.pendingSegs)
	}
	acks, delivered := c.Receiver.Stats().AcksOut, w.a.DeliveredPkts()
	c.Close()
	if c.Receiver.delackTimer.Armed() {
		t.Fatal("Close left the delayed-ACK timer armed")
	}
	w.sched.Run()
	if got := c.Receiver.Stats().AcksOut; got != acks || w.a.DeliveredPkts() != delivered {
		t.Fatalf("after Close the receiver sent %d ACK(s) (%d packets reached the sender host)",
			got-acks, w.a.DeliveredPkts()-delivered)
	}
}

// TestReopenAllocBudget pins what the lifecycle is for: closing and
// reopening a connection allocates nothing.
func TestReopenAllocBudget(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig()
	c := w.conn(cfg, NewReno{})
	flow := packet.FlowID(100)
	churn := func() {
		c.Close()
		flow++
		c.Reopen(cfg, NewReno{}, w.a, w.b, flow)
	}
	churn()
	if got := testing.AllocsPerRun(100, churn); got != 0 {
		t.Fatalf("Close+Reopen allocates %.1f times, want 0", got)
	}
}

// TestLifecycleTwinsFire is TestRuntimeTwinsFire for the lifecycle
// assertions: each misuse must panic with the invariant prefix and its
// label. The control is the legal sequence, which must not.
func TestLifecycleTwinsFire(t *testing.T) {
	cfg := DefaultConfig()
	reopen := func(c *Conn) { c.Reopen(cfg, NewReno{}, c.snd.host, c.rcv.host, 8) }
	ack := func(c *Conn) { c.Sender.Deliver(&packet.Packet{Flow: 7, Flags: packet.FlagACK}) }
	segment := func(c *Conn) { c.Receiver.Deliver(&packet.Packet{Flow: 7, Payload: 100}) }
	send := func(c *Conn) { c.Sender.Send(100) }

	w := newWire(t)
	control := w.conn(cfg, NewReno{})
	ack(control)
	segment(control)
	control.Close()
	reopen(control)
	send(control)
	w.sched.Run()
	if !control.Sender.Done() {
		t.Fatal("control: transfer on the reopened connection did not complete")
	}

	cases := []struct {
		label  string
		misuse func(c *Conn)
	}{
		{"tcp.sender open: flow 7 is still open", reopen},
		{"tcp.receiver open: flow 7 is still open", func(c *Conn) { c.Sender.Close(); reopen(c) }},
		{"tcp.sender open: flow 8 moved to another scheduler", func(c *Conn) {
			c.Close()
			other := newWire(t)
			c.Reopen(cfg, NewReno{}, other.a, other.b, 8)
		}},
		{"tcp.sender Send", func(c *Conn) { c.Close(); send(c) }},
		{"tcp.sender Deliver", func(c *Conn) { c.Close(); ack(c) }},
		{"tcp.receiver Deliver", func(c *Conn) { c.Close(); segment(c) }},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			c := newWire(t).conn(cfg, NewReno{})
			msg := ""
			func() {
				defer func() {
					if r := recover(); r != nil {
						msg = fmt.Sprint(r)
					}
				}()
				tc.misuse(c)
			}()
			if !strings.Contains(msg, "invariant violated: "+tc.label) {
				t.Fatalf("got panic %q, want \"check: invariant violated: %s ...\"", msg, tc.label)
			}
		})
	}
}
