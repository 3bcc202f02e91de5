package netsim

import (
	"slices"
	"testing"

	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
)

// TestLinkBlackhole pins the blackout primitive: while a link is down,
// every packet that starts onto it is destroyed and counted; after the
// link comes back up, traffic flows again. Packets destroyed while down
// appear in the conservation ledger as blackholed.
func TestLinkBlackhole(t *testing.T) {
	s, pool, port, dst := benchPath(t)
	link := port.Link()

	send := func(n int) {
		for i := 0; i < n; i++ {
			pkt := pool.Get()
			fill(pkt, dst, int64(i)*packet.MSS)
			port.Enqueue(pkt)
		}
		s.Run()
	}

	link.SetDown(true)
	if !link.IsDown() {
		t.Fatal("link not down after SetDown(true)")
	}
	send(5)
	if got := link.Blackholed(); got != 5 {
		t.Fatalf("blackholed = %d, want 5", got)
	}
	wantBytes := int64(5 * (packet.MSS + packet.HeaderBytes))
	if got := link.BlackholedBytes(); got != wantBytes {
		t.Fatalf("blackholed bytes = %d, want %d", got, wantBytes)
	}
	if got := dst.DeliveredPkts(); got != 0 {
		t.Fatalf("delivered %d packets through a down link", got)
	}

	link.SetDown(false)
	send(3)
	if got := dst.DeliveredPkts(); got != 3 {
		t.Fatalf("delivered = %d after link restored, want 3", got)
	}
	if got := link.Blackholed(); got != 5 {
		t.Fatalf("blackholed grew to %d after restore, want 5", got)
	}
}

// TestLinkFateDecidedAtSerializationStart pins when a fault edit takes hold
// on a packet: as it starts serializing. Two back-to-back packets start at
// 0 and 12us on a 1Gbps, 10us link, and each edit lands at 6us, while the
// first is still on the wire: the first keeps the fate it started with and
// the second takes the new one.
func TestLinkFateDecidedAtSerializationStart(t *testing.T) {
	for _, tc := range []struct {
		name             string
		edit             func(*Link)
		arrivals         []sim.Time // of the packets that deliver
		blackholed, lost int64
	}{
		{"down", func(l *Link) { l.SetDown(true) }, []sim.Time{22000}, 1, 0},
		{"loss", func(l *Link) { l.SetLoss(1, 9) }, []sim.Time{22000}, 0, 1},
		{"delay", func(l *Link) { l.SetDelay(30 * sim.Microsecond) }, []sim.Time{22000, 54000}, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, pool, port, dst := benchPath(t)
			link := port.Link()
			var arrivals []sim.Time
			dst.OnDeliver = func(*packet.Packet) { arrivals = append(arrivals, s.Now()) }
			for i := 0; i < 2; i++ {
				pkt := pool.Get()
				fill(pkt, dst, int64(i)*packet.MSS)
				port.Enqueue(pkt)
			}
			s.At(6000, func() { tc.edit(link) })
			s.Run()
			if !slices.Equal(arrivals, tc.arrivals) {
				t.Errorf("arrivals %v, want %v", arrivals, tc.arrivals)
			}
			if link.Blackholed() != tc.blackholed || link.Lost() != tc.lost {
				t.Errorf("blackholed %d, lost %d; want %d, %d", link.Blackholed(), link.Lost(), tc.blackholed, tc.lost)
			}
		})
	}
}

// TestLinkLossBytes pins the byte accounting added to the seeded-loss
// branch: lost packets and lost bytes move together.
func TestLinkLossBytes(t *testing.T) {
	s, pool, port, dst := benchPath(t)
	link := port.Link()
	link.SetLoss(1, 42) // drop everything

	for i := 0; i < 4; i++ {
		pkt := pool.Get()
		fill(pkt, dst, int64(i)*packet.MSS)
		port.Enqueue(pkt)
	}
	s.Run()
	if got := link.Lost(); got != 4 {
		t.Fatalf("lost = %d, want 4", got)
	}
	if got := link.LostBytes(); got != 4*int64(packet.MSS+packet.HeaderBytes) {
		t.Fatalf("lost bytes = %d, want %d", got, 4*int64(packet.MSS+packet.HeaderBytes))
	}
}

// TestPortPauseResume pins the host-stall primitive: a paused port accepts
// packets into its queue but clocks nothing out; Resume restarts
// transmission and the backlog drains in order.
func TestPortPauseResume(t *testing.T) {
	s, pool, port, dst := benchPath(t)

	port.Pause()
	for i := 0; i < 6; i++ {
		pkt := pool.Get()
		fill(pkt, dst, int64(i)*packet.MSS)
		port.Enqueue(pkt)
	}
	s.Run()
	if got := dst.DeliveredPkts(); got != 0 {
		t.Fatalf("paused port delivered %d packets, want 0", got)
	}
	if got := port.QueueLen(); got != 6 {
		t.Fatalf("paused port queued %d packets, want 6", got)
	}

	port.Resume()
	s.Run()
	if got := dst.DeliveredPkts(); got != 6 {
		t.Fatalf("delivered = %d after resume, want 6", got)
	}
	if port.QueueLen() != 0 {
		t.Fatalf("queue not drained after resume: %d packets", port.QueueLen())
	}
}

// TestPauseMidSerialization pauses while a packet is being clocked out:
// that packet must complete (the wire does not un-transmit), and the rest
// stay queued until Resume.
func TestPauseMidSerialization(t *testing.T) {
	s, pool, port, dst := benchPath(t)

	for i := 0; i < 3; i++ {
		pkt := pool.Get()
		fill(pkt, dst, int64(i)*packet.MSS)
		port.Enqueue(pkt)
	}
	// First packet is mid-serialization now; freeze before it completes.
	port.Pause()
	s.Run()
	if got := dst.DeliveredPkts(); got != 1 {
		t.Fatalf("delivered = %d with pause mid-serialization, want 1", got)
	}
	port.Resume()
	s.Run()
	if got := dst.DeliveredPkts(); got != 3 {
		t.Fatalf("delivered = %d after resume, want 3", got)
	}
}

// TestPortBufferShrink shrinks the buffer below the live occupancy: queued
// packets stay, new arrivals tail-drop until the queue drains under the new
// limit, and nothing trips the occupancy invariant.
func TestPortBufferShrink(t *testing.T) {
	s, pool, port, dst := benchPath(t)

	port.Pause() // hold the queue so occupancy is deterministic
	for i := 0; i < 8; i++ {
		pkt := pool.Get()
		fill(pkt, dst, int64(i)*packet.MSS)
		port.Enqueue(pkt)
	}
	occ := port.QueueBytes()
	port.SetBufferBytes(occ / 2) // below current occupancy

	pkt := pool.Get()
	fill(pkt, dst, 99*packet.MSS)
	port.Enqueue(pkt)
	if got := port.Stats().DroppedPkts; got != 1 {
		t.Fatalf("dropped = %d after shrink, want 1", got)
	}
	if got := port.QueueLen(); got != 8 {
		t.Fatalf("queue len = %d, want 8 (drop must not evict)", got)
	}

	port.Resume()
	s.Run() // drains fully; occupancy back under the shrunk limit
	pkt = pool.Get()
	fill(pkt, dst, 100*packet.MSS)
	port.Enqueue(pkt)
	s.Run()
	if got := dst.DeliveredPkts(); got != 9 {
		t.Fatalf("delivered = %d, want 9 (8 held + 1 after drain)", got)
	}
}

// TestPortSetMarkThreshold lowers K mid-run and checks the next arrival
// above the new threshold gets CE-marked.
func TestPortSetMarkThreshold(t *testing.T) {
	s, pool, port, dst := benchPath(t)

	port.Pause()
	for i := 0; i < 4; i++ {
		pkt := pool.Get()
		fill(pkt, dst, int64(i)*packet.MSS)
		port.Enqueue(pkt)
	}
	if got := port.Stats().MarkedPkts; got != 0 {
		t.Fatalf("marked %d packets below the default K", got)
	}
	port.SetMarkThreshold(1) // any nonempty queue now marks
	pkt := pool.Get()
	fill(pkt, dst, 10*packet.MSS)
	port.Enqueue(pkt)
	if got := port.Stats().MarkedPkts; got != 1 {
		t.Fatalf("marked = %d after lowering K, want 1", got)
	}
	port.Resume()
	s.Run()
}

// TestLinkSetRateSetDelay verifies mid-run rate/delay mutation changes the
// timing of subsequent packets: halving the rate doubles serialization,
// and a larger delay pushes arrival out.
func TestLinkSetRateSetDelay(t *testing.T) {
	s := sim.NewScheduler()
	pool := &packet.Pool{}
	dst := NewHost(s, 2, "sink")
	dst.SetPool(pool)
	link := NewLink(s, dst, 1e9, 10*sim.Microsecond)
	link.SetPool(pool)
	port := NewPort(s, link, DefaultPortConfig())
	port.SetPool(pool)

	arrival := func() sim.Time {
		pkt := pool.Get()
		fill(pkt, dst, 0)
		before := dst.DeliveredPkts()
		port.Enqueue(pkt)
		s.Run()
		if dst.DeliveredPkts() != before+1 {
			t.Fatal("packet not delivered")
		}
		return s.Now()
	}

	start := s.Now()
	first := arrival().Sub(start)

	link.SetRate(link.RateBps / 2)
	start = s.Now()
	second := arrival().Sub(start)
	// Serialization doubles; propagation unchanged. The total must grow by
	// exactly the original serialization time.
	size := packet.MSS + packet.HeaderBytes
	wantGrowth := sim.Duration(int64(size) * 8 * int64(sim.Second) / 1e9)
	if second-first != wantGrowth {
		t.Fatalf("half-rate transfer took %v, want %v more than %v", second, wantGrowth, first)
	}

	link.SetRate(1e9)
	link.SetDelay(30 * sim.Microsecond)
	start = s.Now()
	third := arrival().Sub(start)
	if third-first != 20*sim.Microsecond {
		t.Fatalf("delay change: transfer took %v, want %v + 20us", third, first)
	}
}
