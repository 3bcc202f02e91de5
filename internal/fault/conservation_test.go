package fault

import (
	"testing"

	"dctcpplus/internal/dctcp"
	"dctcpplus/internal/netsim"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/tcp"
	"dctcpplus/internal/workload"
)

// TestConservationUnderFaults runs a full incast workload with every fault
// class active and balances the packet and byte ledgers across the whole
// network: everything the hosts inject is eventually delivered to a host,
// tail-dropped at a switch port, or destroyed by the fault layer (seeded
// loss + blackholes). Nothing leaks, nothing is double-counted — even with
// links flapping, buffers shrinking and hosts stalling mid-run.
func TestConservationUnderFaults(t *testing.T) {
	sched := sim.NewScheduler()
	tt := netsim.NewTwoTier(sched, 3, 3, netsim.DefaultTopologyConfig())
	tt.EnablePacketPool()
	factory := func(i int, _ tcp.CongestionControl) (tcp.Config, tcp.CongestionControl) {
		cfg := dctcp.Config()
		cfg.RTOMin = 10 * sim.Millisecond
		cfg.Seed = 7 + uint64(i)
		return cfg, dctcp.New(dctcp.DefaultGain)
	}
	in := workload.NewIncast(sched, tt, workload.IncastConfig{
		Flows:        12,
		BytesPerFlow: 64 << 10,
		Rounds:       3,
		Factory:      factory,
		Seed:         7,
		RequestRetry: 10 * sim.Millisecond,
	})

	el := TwoTierElements(tt)
	inj := NewInjector(sched, el)
	gen := GenConfig{
		Seed:   3,
		Start:  sim.Time(2 * sim.Millisecond),
		Window: 60 * sim.Millisecond,
		Dur:    8 * sim.Millisecond,
	}
	inj.Install(Generate(gen, len(el.Links), len(el.Ports), len(el.Hosts)))

	in.OnFinished = sched.Halt
	in.Start()
	sched.RunUntil(sim.Time(5 * 60 * sim.Second))
	if !in.Finished() {
		t.Fatal("incast did not finish under faults")
	}
	// Completion halts on the final ACK; duplicate retransmissions raced by
	// the originals can still be in flight. Drain them before balancing.
	sched.RunFor(100 * sim.Millisecond)
	st := inj.Finish()
	if st.EventsFired == 0 {
		t.Fatal("no fault events fired; the plan missed the run window")
	}
	if st.InducedDropPkts == 0 {
		t.Error("faults induced no drops; blackout/loss classes did not engage")
	}

	hosts := append([]*netsim.Host{tt.Aggregator}, tt.Workers...)
	var allPorts []*netsim.Port
	var injectedPkts, injectedBytes, deliveredPkts, deliveredBytes int64
	for _, h := range hosts {
		s := h.Uplink().Stats()
		injectedPkts += s.EnqueuedPkts
		injectedBytes += s.EnqueuedBytes
		deliveredPkts += h.DeliveredPkts()
		deliveredBytes += h.DeliveredBytes()
		allPorts = append(allPorts, h.Uplink())
	}
	var droppedPkts, droppedBytes int64
	for _, sw := range append([]*netsim.Switch{tt.Root}, tt.Leaves...) {
		for _, p := range sw.Ports() {
			s := p.Stats()
			droppedPkts += s.DroppedPkts
			droppedBytes += s.DroppedBytes
			allPorts = append(allPorts, p)
		}
	}
	var lostPkts, lostBytes int64
	for _, p := range allPorts {
		l := p.Link()
		lostPkts += l.Lost() + l.Blackholed()
		lostBytes += l.LostBytes() + l.BlackholedBytes()
		if p.QueueLen() != 0 {
			t.Errorf("port still holds %d packets after drain", p.QueueLen())
		}
	}

	if injectedPkts != deliveredPkts+droppedPkts+lostPkts {
		t.Errorf("packet ledger unbalanced: injected %d != delivered %d + dropped %d + destroyed %d",
			injectedPkts, deliveredPkts, droppedPkts, lostPkts)
	}
	if injectedBytes != deliveredBytes+droppedBytes+lostBytes {
		t.Errorf("byte ledger unbalanced: injected %d != delivered %d + dropped %d + destroyed %d",
			injectedBytes, deliveredBytes, droppedBytes, lostBytes)
	}
	if lostPkts != st.InducedDropPkts || lostBytes != st.InducedDropBytes {
		t.Errorf("injector stats disagree with link counters: %d/%d pkts, %d/%d bytes",
			st.InducedDropPkts, lostPkts, st.InducedDropBytes, lostBytes)
	}
}
