package netsim

import (
	"testing"

	"dctcpplus/internal/obs"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
)

// benchPath wires the minimal per-packet pipeline — pool → port → link →
// host — with pooling enabled everywhere, mirroring what EnablePacketPool
// sets up on the real topologies.
func benchPath(tb testing.TB) (*sim.Scheduler, *packet.Pool, *Port, *Host) {
	tb.Helper()
	s := sim.NewScheduler()
	pool := &packet.Pool{}
	dst := NewHost(s, 2, "sink")
	dst.SetPool(pool)
	link := NewLink(s, dst, 1e9, 10*sim.Microsecond)
	link.SetPool(pool)
	port := NewPort(s, link, DefaultPortConfig())
	port.SetPool(pool)
	return s, pool, port, dst
}

// fill stamps a pooled packet as a full-MSS data segment bound for dst.
func fill(pkt *packet.Packet, dst *Host, seq int64) {
	pkt.Dst = dst.ID()
	pkt.Flow = 1
	pkt.Seq = seq
	pkt.Payload = packet.MSS
	pkt.ECN = packet.ECT
}

// TestEnqueueDeliverAllocBudget pins the per-packet alloc budget of the
// network layer at zero: once the ring, the event freelist and the packet
// pool are warm, pushing a packet through enqueue → serialize → propagate →
// deliver → recycle allocates nothing.
func TestEnqueueDeliverAllocBudget(t *testing.T) {
	s, pool, port, dst := benchPath(t)

	seq := int64(0)
	send := func() {
		pkt := pool.Get()
		fill(pkt, dst, seq)
		seq += packet.MSS
		port.Enqueue(pkt)
		s.Run()
	}
	// Warm the freelists: first packets mint pool entries, grow the ring,
	// and mint scheduler events.
	for i := 0; i < 64; i++ {
		send()
	}
	if got := testing.AllocsPerRun(200, send); got != 0 {
		t.Fatalf("enqueue/deliver path allocates %.1f times per packet, want 0", got)
	}
	if pool.Minted() > 64 {
		t.Fatalf("pool minted %d packets for a one-in-flight workload", pool.Minted())
	}
}

// TestObservedHopAllocBudget is TestEnqueueDeliverAllocBudget with a
// subscriber on the port's sink: emitting a record costs no allocation, and
// the subscriber sees each hop exactly once, with its packet.
func TestObservedHopAllocBudget(t *testing.T) {
	s, pool, port, dst := benchPath(t)
	var sub obs.Sub
	var records int
	var lastSeq int64
	port.Sink.Subscribe(&sub, func(r obs.Record, pkt *packet.Packet) {
		if r.Kind != obs.Transmit || r.Flow != pkt.Flow || r.At != s.Now() {
			t.Fatalf("record %+v for packet of flow %d at %v", r, pkt.Flow, s.Now())
		}
		records++
		lastSeq = pkt.Seq
	})

	seq := int64(0)
	send := func() {
		pkt := pool.Get()
		fill(pkt, dst, seq)
		port.Enqueue(pkt)
		s.Run()
		if lastSeq != seq {
			t.Fatalf("last record carried seq %d, want %d", lastSeq, seq)
		}
		seq += packet.MSS
	}
	for i := 0; i < 64; i++ {
		send()
	}
	if got := testing.AllocsPerRun(200, send); got != 0 {
		t.Fatalf("observed hop allocates %.1f times per packet, want 0", got)
	}
	if want := int(seq / packet.MSS); records != want {
		t.Fatalf("subscriber saw %d records for %d hops", records, want)
	}
}

// TestBurstAllocBudget pushes a queue-building burst (marking threshold
// crossed, ECN set, several packets serialized back to back) and demands
// the same zero budget — CE marking and queue bookkeeping are on the hot
// path too.
func TestBurstAllocBudget(t *testing.T) {
	s, pool, port, dst := benchPath(t)

	seq := int64(0)
	burst := func() {
		for i := 0; i < 32; i++ {
			pkt := pool.Get()
			fill(pkt, dst, seq)
			seq += packet.MSS
			port.Enqueue(pkt)
		}
		s.Run()
	}
	for i := 0; i < 4; i++ {
		burst()
	}
	if got := testing.AllocsPerRun(50, burst); got != 0 {
		t.Fatalf("burst path allocates %.1f times per 32-packet burst, want 0", got)
	}
}

// BenchmarkPortEnqueueDeliver measures the steady-state per-packet cost of
// the network pipeline with pooling on. The alloc column is the headline:
// it must read 0 allocs/op.
func BenchmarkPortEnqueueDeliver(b *testing.B) {
	s, pool, port, dst := benchPath(b)
	for i := 0; i < 64; i++ {
		pkt := pool.Get()
		fill(pkt, dst, int64(i)*packet.MSS)
		port.Enqueue(pkt)
		s.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := pool.Get()
		fill(pkt, dst, int64(i)*packet.MSS)
		port.Enqueue(pkt)
		s.Run()
	}
	b.SetBytes(int64(packet.MSS + packet.HeaderBytes))
}

// BenchmarkPortBurst32 measures a 32-packet back-to-back burst through one
// port: queue growth, ECN marking above K, serialization chaining.
func BenchmarkPortBurst32(b *testing.B) {
	s, pool, port, dst := benchPath(b)
	seq := int64(0)
	burst := func() {
		for i := 0; i < 32; i++ {
			pkt := pool.Get()
			fill(pkt, dst, seq)
			seq += packet.MSS
			port.Enqueue(pkt)
		}
		s.Run()
	}
	for i := 0; i < 4; i++ {
		burst()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		burst()
	}
	b.SetBytes(32 * int64(packet.MSS+packet.HeaderBytes))
}
