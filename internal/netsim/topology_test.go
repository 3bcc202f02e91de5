package netsim

import (
	"fmt"
	"strings"
	"testing"

	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
)

func TestStarDelivery(t *testing.T) {
	s := sim.NewScheduler()
	star := NewStar(s, 3, DefaultTopologyConfig())
	if len(star.Hosts) != 3 {
		t.Fatalf("hosts = %d", len(star.Hosts))
	}
	var got []*packet.Packet
	star.Hosts[2].Register(7, FlowHandlerFunc(func(p *packet.Packet) { got = append(got, p) }))

	pkt := &packet.Packet{Dst: star.Hosts[2].ID(), Flow: 7, Payload: 100, ECN: packet.ECT}
	star.Hosts[0].Send(pkt)
	s.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d", len(got))
	}
	if got[0].Src != star.Hosts[0].ID() {
		t.Errorf("src = %d, want %d", got[0].Src, star.Hosts[0].ID())
	}
	if got[0].Hops() != 2 {
		t.Errorf("hops = %d, want 2 (host link + switch link)", got[0].Hops())
	}
}

func TestTwoTierShape(t *testing.T) {
	s := sim.NewScheduler()
	tt := NewTwoTier(s, 3, 3, DefaultTopologyConfig())
	if len(tt.Workers) != 9 || len(tt.Leaves) != 3 {
		t.Fatalf("workers=%d leaves=%d", len(tt.Workers), len(tt.Leaves))
	}
	if tt.BottleneckPort == nil {
		t.Fatal("no bottleneck port")
	}
	if tt.BottleneckPort != tt.Root.RouteTo(tt.Aggregator.ID()) {
		t.Error("bottleneck port is not the root->aggregator port")
	}
}

// The routing table is a slice indexed by node id: an id it has no entry
// for — a hole below the highest routed id, one past the end, a negative
// one — is still "no route", nil from RouteTo and a diagnosed panic from
// Deliver.
func TestSwitchUnknownDestination(t *testing.T) {
	s := sim.NewScheduler()
	sw := NewSwitch(s, 0, "sw")
	h := NewHost(s, 5, "h")
	connect(s, h, sw, DefaultTopologyConfig())
	if sw.RouteTo(5) == nil {
		t.Fatal("installed route not found")
	}
	for _, dst := range []packet.NodeID{3, 6, 1 << 20, -1} {
		if p := sw.RouteTo(dst); p != nil {
			t.Errorf("RouteTo(%d) = %v, want nil", dst, p)
		}
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "no route to node") {
					t.Errorf("Deliver to node %d: recovered %v, want the no-route panic", dst, r)
				}
			}()
			sw.Deliver(&packet.Packet{Dst: dst})
		}()
	}
}

func TestTwoTierWorkerToAggregatorPath(t *testing.T) {
	s := sim.NewScheduler()
	tt := NewTwoTier(s, 3, 3, DefaultTopologyConfig())
	var got *packet.Packet
	var when sim.Time
	tt.Aggregator.Register(1, FlowHandlerFunc(func(p *packet.Packet) { got, when = p, s.Now() }))

	tt.Workers[0].Send(&packet.Packet{Dst: tt.Aggregator.ID(), Flow: 1, Payload: packet.MSS, ECN: packet.ECT})
	s.Run()
	if got == nil {
		t.Fatal("not delivered")
	}
	if got.Hops() != 3 {
		t.Errorf("hops = %d, want 3 (worker->leaf->root->agg)", got.Hops())
	}
	// 3 links x (12us serialization + 10us propagation) = 66us.
	if want := sim.Time(66 * sim.Microsecond); when != want {
		t.Errorf("arrival = %v, want %v", when, want)
	}
}

func TestTwoTierAggregatorToWorkerPath(t *testing.T) {
	s := sim.NewScheduler()
	tt := NewTwoTier(s, 3, 3, DefaultTopologyConfig())
	for i, w := range tt.Workers {
		var got *packet.Packet
		fl := packet.FlowID(100 + i)
		w.Register(fl, FlowHandlerFunc(func(p *packet.Packet) { got = p }))
		tt.Aggregator.Send(&packet.Packet{Dst: w.ID(), Flow: fl, Flags: packet.FlagACK})
		s.Run()
		if got == nil {
			t.Fatalf("worker %d unreachable from aggregator", i)
		}
	}
}

func TestTwoTierWorkerToWorkerCrossLeaf(t *testing.T) {
	s := sim.NewScheduler()
	tt := NewTwoTier(s, 3, 3, DefaultTopologyConfig())
	// worker0 (leaf0) -> worker8 (leaf2) crosses the root.
	var got *packet.Packet
	tt.Workers[8].Register(42, FlowHandlerFunc(func(p *packet.Packet) { got = p }))
	tt.Workers[0].Send(&packet.Packet{Dst: tt.Workers[8].ID(), Flow: 42, Payload: 10, ECN: packet.ECT})
	s.Run()
	if got == nil {
		t.Fatal("cross-leaf delivery failed")
	}
	if got.Hops() != 4 {
		t.Errorf("hops = %d, want 4", got.Hops())
	}
}

// Two workers on one leaf exchange traffic through that leaf alone: two
// links, never touching the root.
func TestTwoTierWorkerToWorkerSameLeaf(t *testing.T) {
	s := sim.NewScheduler()
	tt := NewTwoTier(s, 3, 3, DefaultTopologyConfig())
	var got *packet.Packet
	tt.Workers[1].Register(5, FlowHandlerFunc(func(p *packet.Packet) { got = p }))
	tt.Workers[0].Send(&packet.Packet{Dst: tt.Workers[1].ID(), Flow: 5, Payload: 1})
	s.Run()
	if got == nil {
		t.Fatal("same-leaf delivery failed")
	}
	if got.Hops() != 2 {
		t.Errorf("same-leaf hops = %d, want 2", got.Hops())
	}
	if st := tt.Root.AggregateStats(); st.EnqueuedPkts != 0 {
		t.Errorf("same-leaf traffic crossed the root: %+v", st)
	}
}

func TestSwitchAggregateStats(t *testing.T) {
	s := sim.NewScheduler()
	star := NewStar(s, 3, DefaultTopologyConfig())
	for i := 0; i < 2; i++ {
		for j := 0; j < 4; j++ {
			star.Hosts[i].Send(&packet.Packet{Dst: star.Hosts[2].ID(),
				Flow: packet.FlowID(i + 1), Payload: packet.MSS})
		}
	}
	s.Run()
	agg := star.Switch.AggregateStats()
	if agg.Ports != 3 {
		t.Errorf("ports = %d", agg.Ports)
	}
	if agg.EnqueuedPkts != 8 || agg.DequeuedPkts != 8 {
		t.Errorf("aggregate accounting: %+v", agg)
	}
	if agg.DroppedPkts != 0 {
		t.Errorf("unexpected drops: %+v", agg)
	}
	if want := star.Switch.RouteTo(star.Hosts[2].ID()).Stats().MaxQueueBytes; agg.MaxQueueBytes != want {
		t.Errorf("max queue = %d, want the receiver port's %d", agg.MaxQueueBytes, want)
	}
}

func TestTwoTierControlPacketReachesHandler(t *testing.T) {
	s := sim.NewScheduler()
	tt := NewTwoTier(s, 1, 2, DefaultTopologyConfig())
	var req *packet.Packet
	tt.Workers[0].OnControl = func(p *packet.Packet) { req = p }
	tt.Aggregator.Send(&packet.Packet{
		Dst: tt.Workers[0].ID(), Flags: packet.FlagREQ, ReqBytes: 1 << 20,
	})
	s.Run()
	if req == nil {
		t.Fatal("REQ not delivered to control handler")
	}
	if req.ReqBytes != 1<<20 {
		t.Errorf("ReqBytes = %d", req.ReqBytes)
	}
}

func TestHostUnclaimedAndDuplicateRegistration(t *testing.T) {
	s := sim.NewScheduler()
	star := NewStar(s, 2, DefaultTopologyConfig())
	h := star.Hosts[1]
	// An unclaimed packet is delivered to the host and discarded there.
	star.Hosts[0].Send(&packet.Packet{Dst: h.ID(), Flow: 5, Payload: 1})
	s.Run()
	if h.DeliveredPkts() != 1 {
		t.Errorf("delivered = %d, want the unclaimed packet", h.DeliveredPkts())
	}

	h.Register(5, FlowHandlerFunc(func(*packet.Packet) {}))
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	h.Register(5, FlowHandlerFunc(func(*packet.Packet) {}))
}

func TestHostUnregister(t *testing.T) {
	s := sim.NewScheduler()
	star := NewStar(s, 2, DefaultTopologyConfig())
	h := star.Hosts[1]
	n := 0
	h.Register(9, FlowHandlerFunc(func(*packet.Packet) { n++ }))
	h.Unregister(9)
	star.Hosts[0].Send(&packet.Packet{Dst: h.ID(), Flow: 9, Payload: 1})
	s.Run()
	if n != 0 || h.DeliveredPkts() != 1 {
		t.Errorf("n=%d delivered=%d after Unregister", n, h.DeliveredPkts())
	}
}

// TestHostUnregisterKeepsCollidingFlows: flows 1, 9 and 17 share a home
// slot in the host's eight-slot demux array, and flow 2, whose home slot
// flow 9 holds, sits behind them. After flow 1 closes, a late packet for it
// is discarded, and every packet of the three live flows still reaches its
// own handler; a delete that left a hole instead of shifting the probe run
// back would strand 9 and 17 behind it.
func TestHostUnregisterKeepsCollidingFlows(t *testing.T) {
	h := NewHost(sim.NewScheduler(), 1, "h")
	flows := []packet.FlowID{1, 9, 17, 2}
	got := map[packet.FlowID]int{}
	for _, f := range flows {
		h.Register(f, FlowHandlerFunc(func(p *packet.Packet) {
			if p.Flow != f {
				t.Errorf("flow %d's handler received a packet of flow %d", f, p.Flow)
			}
			got[f]++
		}))
	}
	h.Unregister(1)
	for _, f := range flows {
		h.Deliver(&packet.Packet{Dst: h.ID(), Flow: f, Payload: 1})
	}
	for _, f := range flows[1:] {
		if got[f] != 1 {
			t.Errorf("live flow %d received %d packets, want 1", f, got[f])
		}
	}
	if got[1] != 0 || h.DeliveredPkts() != int64(len(flows)) {
		t.Errorf("closed flow 1 received %d packets (want 0); host delivered %d (want %d)",
			got[1], h.DeliveredPkts(), len(flows))
	}
}

func TestSwitchNoRoutePanics(t *testing.T) {
	s := sim.NewScheduler()
	sw := NewSwitch(s, 1, "sw")
	defer func() {
		if recover() == nil {
			t.Error("missing route did not panic")
		}
	}()
	sw.Deliver(&packet.Packet{Dst: 12345})
}

func TestHostWithoutUplinkPanics(t *testing.T) {
	s := sim.NewScheduler()
	h := NewHost(s, 1, "h")
	defer func() {
		if recover() == nil {
			t.Error("send without uplink did not panic")
		}
	}()
	h.Send(&packet.Packet{Dst: 2})
}

func TestPipelineCapacityMatchesPaperArithmetic(t *testing.T) {
	// §IV-C: "Pipeline Capacity C x D + B is 1Gbps x 100us + 128KB =
	// 140.5KB" (the paper's text has a typo "100Gbps"; the arithmetic shown
	// is 1Gbps). Our config: C=1Gbps, base RTT with 3 hops + serialization
	// ~= 100us, B=128KB.
	cfg := DefaultTopologyConfig()
	// With D=100us exactly: C*D = 12.5KB, + 128KB = 140.5KB.
	bdp := cfg.LinkRateBps * int64(100*sim.Microsecond) / (8 * int64(sim.Second))
	if bdp != 12500 {
		t.Errorf("C*D = %d, want 12500 bytes", bdp)
	}
	total := bdp + int64(cfg.SwitchPort.BufferBytes)
	if total != 12500+131072 {
		t.Errorf("pipeline capacity = %d", total)
	}
	// And the builder's own helper for the 3-hop path is in the same range.
	got := cfg.PipelineCapacityBytes(3)
	if got < 135000 || got > 150000 {
		t.Errorf("PipelineCapacityBytes(3) = %d, want ~140KB", got)
	}
}

func TestBaseRTT(t *testing.T) {
	cfg := DefaultTopologyConfig()
	if got := cfg.BaseRTT(3); got != 60*sim.Microsecond {
		t.Errorf("BaseRTT(3) = %v, want 60us", got)
	}
}

func TestTwoTierValidation(t *testing.T) {
	s := sim.NewScheduler()
	defer func() {
		if recover() == nil {
			t.Error("invalid two-tier config did not panic")
		}
	}()
	NewTwoTier(s, 0, 3, DefaultTopologyConfig())
}
