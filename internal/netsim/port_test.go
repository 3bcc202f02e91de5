package netsim

import (
	"strings"
	"testing"
	"testing/quick"

	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
)

// sinkNode collects delivered packets with their arrival times.
type sinkNode struct {
	id   packet.NodeID
	s    *sim.Scheduler
	got  []*packet.Packet
	when []sim.Time
}

func (n *sinkNode) ID() packet.NodeID { return n.id }
func (n *sinkNode) Deliver(p *packet.Packet) {
	n.got = append(n.got, p)
	n.when = append(n.when, n.s.Now())
}

func newSinkAndPort(t *testing.T, cfg PortConfig, rateBps int64, delay sim.Duration) (*sim.Scheduler, *sinkNode, *Port) {
	t.Helper()
	s := sim.NewScheduler()
	sink := &sinkNode{id: 99, s: s}
	link := NewLink(s, sink, rateBps, delay)
	return s, sink, NewPort(s, link, cfg)
}

func dataPkt(n int, ecn packet.ECN) *packet.Packet {
	return &packet.Packet{Dst: 99, Payload: n, ECN: ecn}
}

func TestLinkSerializationDelay(t *testing.T) {
	s := sim.NewScheduler()
	sink := &sinkNode{id: 99, s: s}
	l := NewLink(s, sink, 1_000_000_000, 0)
	// 1500 bytes at 1Gbps = 12us.
	if got := l.SerializationDelay(1500); got != 12*sim.Microsecond {
		t.Errorf("serialization = %v, want 12us", got)
	}
	l2 := NewLink(s, sink, 100_000_000, 0)
	if got := l2.SerializationDelay(1500); got != 120*sim.Microsecond {
		t.Errorf("serialization@100Mbps = %v, want 120us", got)
	}
}

func TestLinkValidation(t *testing.T) {
	s := sim.NewScheduler()
	sink := &sinkNode{id: 1, s: s}
	for _, fn := range []func(){
		func() { NewLink(s, sink, 0, 0) },
		func() { NewLink(s, sink, 1e9, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid link config did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestPortDeliversWithLatency(t *testing.T) {
	s, sink, p := newSinkAndPort(t, DefaultPortConfig(), 1_000_000_000, 10*sim.Microsecond)
	p.Enqueue(dataPkt(1460, packet.ECT)) // 1500B on wire: 12us serialize + 10us prop
	s.Run()
	if len(sink.got) != 1 {
		t.Fatalf("delivered %d packets", len(sink.got))
	}
	if want := sim.Time(22 * sim.Microsecond); sink.when[0] != want {
		t.Errorf("arrival = %v, want %v", sink.when[0], want)
	}
}

func TestPortSerializesBackToBack(t *testing.T) {
	s, sink, p := newSinkAndPort(t, DefaultPortConfig(), 1_000_000_000, 0)
	for i := 0; i < 3; i++ {
		p.Enqueue(dataPkt(1460, packet.ECT))
	}
	s.Run()
	if len(sink.got) != 3 {
		t.Fatalf("delivered %d", len(sink.got))
	}
	// Each full segment takes 12us to clock out; arrivals at 12, 24, 36us.
	for i, want := range []sim.Time{12000, 24000, 36000} {
		if sink.when[i] != want {
			t.Errorf("arrival[%d] = %v, want %v", i, sink.when[i], want)
		}
	}

	// A second burst of four at 36us, paused while the first is on the wire
	// and resumed at 86us, with the rate halved at 106us while the third is
	// on the wire. The pause holds the queue behind the packet it cannot
	// un-transmit, Resume restarts at once (the wire is long free), and the
	// rate applies from the next packet to start: the third arrives at the
	// rate it started with, the fourth takes 24us.
	sink.got, sink.when = nil, nil
	base := s.Now()
	for i := 0; i < 4; i++ {
		p.Enqueue(dataPkt(1460, packet.ECT))
	}
	s.At(base.Add(6*sim.Microsecond), p.Pause)
	s.At(base.Add(50*sim.Microsecond), p.Resume)
	s.At(base.Add(70*sim.Microsecond), func() { p.Link().SetRate(500_000_000) })
	s.Run()
	if len(sink.got) != 4 {
		t.Fatalf("second burst delivered %d, want 4", len(sink.got))
	}
	for i, us := range []int64{12, 62, 74, 98} {
		if want := base.Add(sim.Duration(us) * sim.Microsecond); sink.when[i] != want {
			t.Errorf("second burst arrival[%d] = %v, want %v", i, sink.when[i], want)
		}
	}
}

// TestOneEventPerHop pins a hop's scheduler cost: a packet that finds its
// port idle costs one event, its delivery, scheduled as it starts
// serializing. A back-to-back burst of k costs 2k-1: k deliveries plus the
// k-1 wake-ups that start each waiting packet as the wire frees. Packet i
// of a burst arrives at (i+1)·serialization + propagation, the instants of
// a port that scheduled its tx-complete and the link's delivery apart.
func TestOneEventPerHop(t *testing.T) {
	s, pool, port, dst := benchPath(t)
	link := port.Link()
	ser := link.SerializationDelay(packet.MSS + packet.HeaderBytes)
	var arrivals []sim.Time
	dst.OnDeliver = func(*packet.Packet) { arrivals = append(arrivals, s.Now()) }
	for _, k := range []int{1, 2, 8} {
		arrivals = arrivals[:0]
		start, fired := s.Now(), s.Fired()
		for i := 0; i < k; i++ {
			pkt := pool.Get()
			fill(pkt, dst, int64(i)*packet.MSS)
			port.Enqueue(pkt)
		}
		s.Run()
		if got, want := s.Fired()-fired, uint64(2*k-1); got != want {
			t.Errorf("burst of %d fired %d events, want %d", k, got, want)
		}
		if len(arrivals) != k {
			t.Fatalf("burst of %d delivered %d", k, len(arrivals))
		}
		for i, at := range arrivals {
			if want := start.Add(sim.Duration(i+1)*ser + link.Delay); at != want {
				t.Errorf("burst of %d: arrival[%d] at %v, want %v", k, i, at, want)
			}
		}
	}
}

func TestPortTailDrop(t *testing.T) {
	cfg := PortConfig{BufferBytes: 3000} // holds two 1500B packets
	s, sink, p := newSinkAndPort(t, cfg, 1_000_000_000, 0)
	// First packet starts transmitting immediately (leaves the queue), so
	// enqueue 4 at t=0: #1 in service, #2,#3 queued (3000B), #4 dropped.
	for i := 0; i < 4; i++ {
		p.Enqueue(dataPkt(1460, packet.ECT))
	}
	st := p.Stats()
	if st.DroppedPkts != 1 {
		t.Fatalf("drops = %d, want 1", st.DroppedPkts)
	}
	s.Run()
	if len(sink.got) != 3 {
		t.Errorf("delivered %d, want 3", len(sink.got))
	}
	if st.MaxQueueBytes != 3000 {
		t.Errorf("MaxQueueBytes = %d, want 3000", st.MaxQueueBytes)
	}
}

func TestPortECNMarking(t *testing.T) {
	// K = 2000 bytes: marking starts once the instantaneous queue exceeds K.
	cfg := PortConfig{BufferBytes: 1 << 20, MarkThresholdBytes: 2000}
	s, sink, p := newSinkAndPort(t, cfg, 1_000_000_000, 0)
	// Packet 1 enters service (queue stays 0). Packets 2,3 queue up to
	// 3000B. Packet 4 sees queue 3000 > K -> marked.
	for i := 0; i < 4; i++ {
		p.Enqueue(dataPkt(1460, packet.ECT))
	}
	s.Run()
	marked := 0
	for _, pk := range sink.got {
		if pk.ECN == packet.CE {
			marked++
		}
	}
	if marked != 1 {
		t.Errorf("marked = %d, want 1", marked)
	}
	if p.Stats().MarkedPkts != 1 {
		t.Errorf("stats.MarkedPkts = %d, want 1", p.Stats().MarkedPkts)
	}
}

func TestPortNoMarkingForNotECT(t *testing.T) {
	cfg := PortConfig{BufferBytes: 1 << 20, MarkThresholdBytes: 1000}
	s, sink, p := newSinkAndPort(t, cfg, 1_000_000_000, 0)
	for i := 0; i < 5; i++ {
		p.Enqueue(dataPkt(1460, packet.NotECT))
	}
	s.Run()
	for _, pk := range sink.got {
		if pk.ECN == packet.CE {
			t.Fatal("NotECT packet was marked CE")
		}
	}
}

func TestPortMarkingDisabledWhenKZero(t *testing.T) {
	cfg := PortConfig{BufferBytes: 1 << 20} // K = 0: plain drop-tail
	s, sink, p := newSinkAndPort(t, cfg, 1_000_000_000, 0)
	for i := 0; i < 10; i++ {
		p.Enqueue(dataPkt(1460, packet.ECT))
	}
	s.Run()
	for _, pk := range sink.got {
		if pk.ECN == packet.CE {
			t.Fatal("marking occurred with K=0")
		}
	}
}

// Property: conservation — every enqueued packet is either dequeued or
// dropped, and the queue drains to zero when the scheduler idles.
func TestPortConservationProperty(t *testing.T) {
	f := func(sizes []uint16, bufKB uint8) bool {
		buf := (int(bufKB%127) + 2) * 1024
		s := sim.NewScheduler()
		sink := &sinkNode{id: 99, s: s}
		link := NewLink(s, sink, 1_000_000_000, sim.Microsecond)
		p := NewPort(s, link, PortConfig{BufferBytes: buf, MarkThresholdBytes: buf / 4})
		n := 0
		for _, sz := range sizes {
			payload := int(sz % packet.MSS)
			p.Enqueue(dataPkt(payload, packet.ECT))
			n++
		}
		s.Run()
		st := p.Stats()
		return st.EnqueuedPkts+st.DroppedPkts == int64(n) &&
			st.DequeuedPkts == st.EnqueuedPkts &&
			int(st.DequeuedPkts) == len(sink.got) &&
			p.QueueBytes() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPortRejectsNonPositiveBuffer builds a switch port and a topology
// whose host queues each have a zero buffer; both must panic naming the
// rule.
func TestPortRejectsNonPositiveBuffer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func()
	}{
		{"port", func() {
			cfg := DefaultPortConfig()
			cfg.BufferBytes = 0
			NewPort(sim.NewScheduler(), nil, cfg)
		}},
		{"topology host queue", func() {
			cfg := DefaultTopologyConfig()
			cfg.HostQueueBytes = 0
			NewTwoTier(sim.NewScheduler(), 1, 1, cfg)
		}},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "port buffer must be positive") {
					t.Errorf("%s: zero buffer panicked with %q, want the positive-buffer rule", tc.name, msg)
				}
			}()
			tc.build()
		}()
	}
}

func TestDefaultPortConfigMatchesPaper(t *testing.T) {
	cfg := DefaultPortConfig()
	if cfg.BufferBytes != 128<<10 {
		t.Errorf("buffer = %d, want 128KB", cfg.BufferBytes)
	}
	if cfg.MarkThresholdBytes != 32<<10 {
		t.Errorf("K = %d, want 32KB", cfg.MarkThresholdBytes)
	}
}

// TestRuntimeTwinsFire shows qBytes' always-on check.* calls labelled
// "netsim.port queue bytes", the ones that bound it, are live: an occupancy corrupted below what the queue really
// holds must panic at the next dequeue.
func TestRuntimeTwinsFire(t *testing.T) {
	s, _, p := newSinkAndPort(t, PortConfig{BufferBytes: 1 << 20}, 1_000_000_000, 0)
	p.Pause()
	p.Enqueue(dataPkt(1000, packet.NotECT))
	p.Resume()
	s.Run() // control: a sane occupancy dequeues quietly
	p.Pause()
	p.Enqueue(dataPkt(1000, packet.NotECT))
	p.qBytes = 0
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "invariant violated: netsim.port queue bytes") {
			t.Fatalf("corrupted qBytes: got panic %q, want the netsim.port queue bytes invariant violation", msg)
		}
	}()
	p.Resume()
}
