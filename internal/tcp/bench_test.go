package tcp

import (
	"testing"

	"dctcpplus/internal/netsim"
	"dctcpplus/internal/obs"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
)

// BenchmarkBulkTransfer measures end-to-end simulator throughput: one
// NewReno flow moving 1MB across a star topology. Reported metric:
// simulated megabytes per wall second.
func BenchmarkBulkTransfer(b *testing.B) {
	const size = 1 << 20
	for i := 0; i < b.N; i++ {
		s := sim.NewScheduler()
		star := netsim.NewStar(s, 2, netsim.DefaultTopologyConfig())
		star.EnablePacketPool()
		cfg := DefaultConfig()
		cfg.MaxCwnd = 64
		c := NewConn(cfg, NewReno{}, star.Hosts[0], star.Hosts[1], 1)
		c.Sender.Send(size)
		s.Run()
		if !c.Sender.Done() {
			b.Fatal("transfer incomplete")
		}
	}
	b.SetBytes(size)
}

// BenchmarkManyFlows measures the cost of a 64-flow fan-in round.
func BenchmarkManyFlows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.NewScheduler()
		tt := netsim.NewTwoTier(s, 3, 3, netsim.DefaultTopologyConfig())
		tt.EnablePacketPool()
		done := 0
		for f := 0; f < 64; f++ {
			cfg := DefaultConfig()
			cfg.RTOMin = 10 * sim.Millisecond
			cfg.Seed = uint64(f + 1)
			c := NewConn(cfg, NewReno{}, tt.Workers[f%9], tt.Aggregator, packet.FlowID(f+1))
			c.Sender.OnComplete = func(int64) { done++ }
			c.Sender.Send(16 << 10)
		}
		s.RunUntil(sim.Time(10 * sim.Second))
		if done != 64 {
			b.Fatalf("completed %d/64", done)
		}
	}
}

// TestTransferAllocBudget pins the transport's steady-state alloc budget at
// zero: after one warm-up transfer has minted the pool packets, grown the
// scheduler's event freelist and the receiver's reassembly buffer, every
// further transfer — data transmission, ACK processing, cwnd updates, RTO
// arming, pacing — runs without a single heap allocation.
func TestTransferAllocBudget(t *testing.T) {
	s := sim.NewScheduler()
	star := netsim.NewStar(s, 2, netsim.DefaultTopologyConfig())
	pool := star.EnablePacketPool()
	cfg := DefaultConfig()
	cfg.MaxCwnd = 64
	c := NewConn(cfg, NewReno{}, star.Hosts[0], star.Hosts[1], 1)

	transfer := func() {
		c.Sender.Send(64 << 10)
		s.Run()
	}
	for i := 0; i < 4; i++ {
		transfer()
	}
	if !c.Sender.Done() {
		t.Fatal("warm-up transfers incomplete")
	}
	if got := testing.AllocsPerRun(20, transfer); got != 0 {
		t.Fatalf("steady-state transfer allocates %.1f times per 64KB, want 0", got)
	}
	if pool.Minted() > 256 {
		t.Fatalf("pool minted %d packets for a 64-segment window", pool.Minted())
	}
}

// TestObservedTransferAllocBudget is TestTransferAllocBudget with a
// subscriber on the sender's and the receiver's sink: emitting costs no
// allocation, and the subscribers see every processed and every emitted ACK
// exactly once.
func TestObservedTransferAllocBudget(t *testing.T) {
	s := sim.NewScheduler()
	star := netsim.NewStar(s, 2, netsim.DefaultTopologyConfig())
	star.EnablePacketPool()
	cfg := DefaultConfig()
	cfg.MaxCwnd = 64
	c := NewConn(cfg, NewReno{}, star.Hosts[0], star.Hosts[1], 1)
	var sndSub, rcvSub obs.Sub
	var seen [obs.Timeout + 1]int64
	count := func(r obs.Record, _ *packet.Packet) { seen[r.Kind]++ }
	c.Sender.Sink.Subscribe(&sndSub, count)
	c.Receiver.Sink.Subscribe(&rcvSub, count)

	transfer := func() {
		c.Sender.Send(64 << 10)
		s.Run()
	}
	for i := 0; i < 4; i++ {
		transfer()
	}
	if got := testing.AllocsPerRun(20, transfer); got != 0 {
		t.Fatalf("observed steady-state transfer allocates %.1f times per 64KB, want 0", got)
	}
	if !c.Sender.Done() {
		t.Fatal("transfers incomplete")
	}
	if acks := c.Sender.Stats().AcksIn; seen[obs.AckProcessed] != acks {
		t.Errorf("sender sink saw %d ACKs processed, sender counted %d", seen[obs.AckProcessed], acks)
	}
	if acks := c.Receiver.Stats().AcksOut; seen[obs.AckSent] != acks || acks == 0 {
		t.Errorf("receiver sink saw %d ACKs sent, receiver counted %d", seen[obs.AckSent], acks)
	}
}

// TestAckPathAllocBudget isolates the pure-ACK receive path: delivering an
// acknowledgement that does not open the window (everything already acked)
// still walks Sender.Deliver, the congestion module's OnAck and the pacing
// pump, and must not allocate.
func TestAckPathAllocBudget(t *testing.T) {
	s := sim.NewScheduler()
	star := netsim.NewStar(s, 2, netsim.DefaultTopologyConfig())
	star.EnablePacketPool()
	c := NewConn(DefaultConfig(), NewReno{}, star.Hosts[0], star.Hosts[1], 1)
	c.Sender.Send(64 << 10)
	s.Run()
	if !c.Sender.Done() {
		t.Fatal("warm-up transfer incomplete")
	}

	var ack packet.Packet
	ack.Src, ack.Dst = star.Hosts[1].ID(), star.Hosts[0].ID()
	ack.Flow = 1
	ack.Flags = packet.FlagACK
	deliver := func() {
		ack.AckNo = c.Sender.SndUna() // a pure duplicate
		c.Sender.Deliver(&ack)
	}
	deliver()
	if got := testing.AllocsPerRun(100, deliver); got != 0 {
		t.Fatalf("ACK path allocates %.1f times per ACK, want 0", got)
	}
}
