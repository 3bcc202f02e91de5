package netsim

import (
	"testing"

	"dctcpplus/internal/obs"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/resetcheck"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/telemetry"
)

// The keep-lists: the fields each element's Reset carries into the next
// run — wiring, the packet pool, once-bound callbacks, ring and demux
// array capacity.
// Everything else must come out of Reset exactly as a fresh build has it.
var (
	portKeeps = []string{"sched", "link", "q", "pool", "wakeFn"}
	linkKeeps = []string{"sched", "dst", "pool", "deliverFn"}
	hostKeeps = []string{"sched", "uplink", "pool", "flows"}
)

// dirtyTwoTier runs traffic across tt until every port has moved packets
// and some are still queued, with every hook, a sink subscriber on every
// port, telemetry instruments and fault edits applied and the workers
// mirrored — everything a faulted, observed run leaves behind. The
// subscribers count their records into *seen.
func dirtyTwoTier(t *testing.T, s *sim.Scheduler, tt *TwoTier, seen *int) {
	t.Helper()
	reg := telemetry.NewRegistry()
	hook := func(*packet.Packet) {}
	hosts := append([]*Host{tt.Aggregator}, tt.Workers...)
	for i, h := range hosts {
		h.Register(packet.FlowID(i+1), FlowHandlerFunc(hook))
		h.OnControl, h.OnDeliver = hook, hook
	}
	for _, sw := range append([]*Switch{tt.Root}, tt.Leaves...) {
		for _, p := range sw.Ports() {
			p.AttachTelemetry(reg)
		}
	}
	ports := tt.ports()
	subs := make([]obs.Sub, len(ports))
	for i, p := range ports {
		p.Sink.Subscribe(&subs[i], func(obs.Record, *packet.Packet) { *seen++ })
	}
	// Bursts from every worker to the aggregator and to one another: the
	// bottleneck queue builds, marks, feeds the phantom queue and, once the
	// buffer shrinks, drops.
	burst := func() {
		for round := 0; round < 40; round++ {
			for _, w := range tt.Workers {
				for _, dst := range []*Host{tt.Aggregator, tt.Workers[0]} {
					if dst == w {
						continue
					}
					pkt := w.AllocPacket()
					pkt.Dst, pkt.Flow, pkt.Payload, pkt.ECN = dst.ID(), 1, packet.MSS, packet.ECT
					w.Send(pkt)
				}
			}
		}
		s.RunFor(200 * sim.Microsecond)
	}
	burst()
	// Fault edits on the bottleneck path.
	bn := tt.BottleneckPort
	bn.SetBufferBytes(bn.Config().BufferBytes / 4)
	bn.SetMarkThreshold(1)
	bn.Link().SetRate(bn.Link().RateBps / 2)
	bn.Link().SetDelay(3 * bn.Link().Delay)
	bn.Link().SetLoss(0.1, 7)
	tt.Workers[1].Uplink().Link().SetDown(true)
	tt.Workers[2].Uplink().Pause()
	burst()
	for i, j := 0, len(tt.Workers)-1; i < j; i, j = i+1, j-1 {
		tt.Workers[i], tt.Workers[j] = tt.Workers[j], tt.Workers[i]
	}
	if st := bn.Stats(); st.MarkedPkts == 0 || st.DroppedPkts == 0 || bn.QueueLen() == 0 || bn.Link().Lost() == 0 || *seen == 0 {
		t.Fatalf("first life too quiet to dirty the tree: bottleneck %+v queue %d lost %d records %d",
			st, bn.QueueLen(), bn.Link().Lost(), *seen)
	}
}

// TestTwoTierResetEqualsFresh: after a faulted, observed run and a Reset
// (scheduler first emptied, as a rig does), every host, port and link of the
// tree equals its counterpart in a freshly built one outside the keep-lists
// — nominal config restored, stats, hooks, sink subscribers and instruments
// cleared, rings and flow maps empty, Workers back in construction order —
// under the DCTCP threshold and HULL marking alike.
func TestTwoTierResetEqualsFresh(t *testing.T) {
	hull := DefaultTopologyConfig()
	hull.SwitchPort = HULLPortConfig()
	for name, cfg := range map[string]TopologyConfig{"threshold": DefaultTopologyConfig(), "hull": hull} {
		t.Run(name, func(t *testing.T) {
			s := sim.NewScheduler()
			tt := NewTwoTier(s, 3, 3, cfg)
			pool := tt.EnablePacketPool()
			var seen int
			dirtyTwoTier(t, s, tt, &seen)
			ringCaps := map[*Port]int{}
			for _, p := range tt.ports() {
				ringCaps[p] = cap(p.q)
			}
			minted, seenBefore := pool.Minted(), seen
			s.Reset()
			tt.Reset()

			fresh := NewTwoTier(sim.NewScheduler(), 3, 3, cfg)
			fresh.EnablePacketPool()
			for i, w := range tt.Workers {
				if w.ID() != fresh.Workers[i].ID() {
					t.Fatalf("Workers[%d] is node %d after Reset, built as node %d: mirroring survived", i, w.ID(), fresh.Workers[i].ID())
				}
			}
			got, want := tt.ports(), fresh.ports()
			for i, p := range got {
				resetcheck.Diff(t, p, want[i], portKeeps...)
				resetcheck.Diff(t, p.link, want[i].link, linkKeeps...)
				if cap(p.q) != ringCaps[p] {
					t.Errorf("port %d ring capacity %d -> %d, want it kept", i, ringCaps[p], cap(p.q))
				}
				for _, slot := range p.q {
					if slot != nil {
						t.Fatalf("port %d ring still references a packet after Reset", i)
					}
				}
			}
			gotH, wantH := append([]*Host{tt.Aggregator}, tt.Workers...), append([]*Host{fresh.Aggregator}, fresh.Workers...)
			for i, h := range gotH {
				resetcheck.Diff(t, h, wantH[i], hostKeeps...)
				if _, ok := h.flows.Get(packet.FlowID(i + 1)); ok {
					t.Errorf("host %d still demuxes flow %d after Reset", i, i+1)
				}
			}
			// The queued packets went back to the pool: the second life's
			// first sends are served from it.
			w := tt.Workers[0]
			pkt := w.AllocPacket()
			pkt.Dst, pkt.Flow, pkt.Payload = tt.Aggregator.ID(), 1, packet.MSS
			w.Send(pkt)
			s.Run()
			if pool.Minted() != minted || tt.Aggregator.DeliveredPkts() != 1 {
				t.Errorf("second life: minted %d -> %d, aggregator received %d; want a recycled packet delivered once",
					minted, pool.Minted(), tt.Aggregator.DeliveredPkts())
			}
			if seen != seenBefore {
				t.Errorf("second life: %d records reached the first life's subscribers, want Reset to drop them", seen-seenBefore)
			}
		})
	}
}

// ports lists every port of the tree in a fixed order: host uplinks
// (aggregator first, workers in Workers order), then switch ports.
func (tt *TwoTier) ports() []*Port {
	var out []*Port
	for _, h := range append([]*Host{tt.Aggregator}, tt.Workers...) {
		out = append(out, h.Uplink())
	}
	for _, sw := range append([]*Switch{tt.Root}, tt.Leaves...) {
		out = append(out, sw.Ports()...)
	}
	return out
}
