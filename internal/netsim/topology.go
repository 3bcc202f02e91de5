package netsim

import (
	"fmt"

	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
)

// TopologyConfig describes link and switch parameters shared by the
// topology builders. The defaults reproduce the paper's testbed (§III):
// 1Gbps links, ~100us base RTT, 128KB static buffer per switch port with
// ECN threshold K=32KB.
type TopologyConfig struct {
	// LinkRateBps is the rate of every link (hosts and inter-switch).
	LinkRateBps int64
	// LinkDelay is the one-way propagation delay of every link.
	LinkDelay sim.Duration
	// SwitchPort configures every switch output port.
	SwitchPort PortConfig
	// HostQueueBytes sizes the host NIC output queue. Host queues do not
	// mark ECN; they are deep enough that a window-limited sender never
	// drops locally. It must be positive.
	HostQueueBytes int
}

// DefaultTopologyConfig returns the testbed parameters from the paper.
func DefaultTopologyConfig() TopologyConfig {
	return TopologyConfig{
		LinkRateBps:    1_000_000_000, // 1 Gbps
		LinkDelay:      10 * sim.Microsecond,
		SwitchPort:     DefaultPortConfig(),
		HostQueueBytes: 4 << 20,
	}
}

// BaseRTT returns the round-trip time of a payload-less exchange across the
// given number of one-way hops (links), ignoring queueing: 2 * hops * delay.
// With the default 2-tier topology a worker-aggregator path crosses three
// links each way, giving 60us of propagation; adding serialization of a
// full-MTU segment and its ACK lands near the paper's ~100us RTT.
func (c TopologyConfig) BaseRTT(hops int) sim.Duration {
	return sim.Duration(2*hops) * c.LinkDelay
}

// idAllocator hands out unique node ids within one topology.
type idAllocator struct{ next packet.NodeID }

func (a *idAllocator) alloc() packet.NodeID {
	id := a.next
	a.next++
	return id
}

// connect wires a bidirectional host<->switch attachment: the host gets an
// uplink port/link toward the switch, the switch gets a port/link toward
// the host, and the switch learns the direct route.
func connect(sched *sim.Scheduler, h *Host, sw *Switch, cfg TopologyConfig) {
	up := NewLink(sched, sw, cfg.LinkRateBps, cfg.LinkDelay)
	h.SetUplink(NewPort(sched, up, PortConfig{BufferBytes: cfg.HostQueueBytes}))
	down := NewLink(sched, h, cfg.LinkRateBps, cfg.LinkDelay)
	sw.AddRoute(h.ID(), sw.AddPort(down, cfg.SwitchPort))
}

// trunk wires a bidirectional switch<->switch trunk and returns the two
// directed ports (a->b, b->a). Routes are installed by the caller.
func trunk(sched *sim.Scheduler, a, b *Switch, cfg TopologyConfig) (ab, ba *Port) {
	lab := NewLink(sched, b, cfg.LinkRateBps, cfg.LinkDelay)
	ab = a.AddPort(lab, cfg.SwitchPort)
	lba := NewLink(sched, a, cfg.LinkRateBps, cfg.LinkDelay)
	ba = b.AddPort(lba, cfg.SwitchPort)
	return ab, ba
}

// enablePool wires one shared packet freelist through every element of a
// topology that allocates or consumes packets: hosts (mint on send, free on
// delivery), ports (free on tail drop), and links (free on injected loss).
func enablePool(pool *packet.Pool, hosts []*Host, switches []*Switch) {
	for _, h := range hosts {
		h.SetPool(pool)
		if up := h.Uplink(); up != nil {
			up.SetPool(pool)
			up.Link().SetPool(pool)
		}
	}
	for _, sw := range switches {
		for _, p := range sw.Ports() {
			p.SetPool(pool)
			p.Link().SetPool(pool)
		}
	}
}

// Star is a single-switch topology: N hosts on one switch. Used for unit
// tests and micro-benchmarks of the transport.
type Star struct {
	Switch *Switch
	Hosts  []*Host
}

// NewStar builds a star of n hosts around one switch.
func NewStar(sched *sim.Scheduler, n int, cfg TopologyConfig) *Star {
	ids := &idAllocator{}
	sw := NewSwitch(sched, ids.alloc(), "switch0")
	st := &Star{Switch: sw}
	for i := 0; i < n; i++ {
		h := NewHost(sched, ids.alloc(), fmt.Sprintf("host%d", i))
		connect(sched, h, sw, cfg)
		st.Hosts = append(st.Hosts, h)
	}
	return st
}

// EnablePacketPool turns on packet recycling across the whole star and
// returns the shared pool. Call after wiring, before traffic. Handlers
// must then not retain delivered packets beyond their callback.
func (st *Star) EnablePacketPool() *packet.Pool {
	pool := &packet.Pool{}
	enablePool(pool, st.Hosts, []*Switch{st.Switch})
	return pool
}

// TwoTier is the paper's experimental topology (Fig. 5): a root switch
// ("Switch 1") with the aggregator attached directly, and leaf switches
// each carrying a group of worker hosts. The bottleneck for incast traffic
// is the root's port toward the aggregator.
type TwoTier struct {
	Root   *Switch   // Switch 1
	Leaves []*Switch // Switch 2, 3, ...

	Aggregator *Host
	Workers    []*Host

	// BottleneckPort is the root switch's output port toward the
	// aggregator — the port whose queue the paper's Figures 9 and 14
	// sample.
	BottleneckPort *Port

	// cfg and built are what the tree was built with — the configuration
	// and Workers in construction order — which Reset restores.
	cfg   TopologyConfig
	built []*Host
	pool  *packet.Pool // set by EnablePacketPool
}

// NewTwoTier builds the 2-tier tree with the given fan-out: leaves leaf
// switches, each with hostsPerLeaf workers, plus one aggregator on the
// root. The paper's cluster is 3 leaves x 3 workers + 1 aggregator.
func NewTwoTier(sched *sim.Scheduler, leaves, hostsPerLeaf int, cfg TopologyConfig) *TwoTier {
	if leaves <= 0 || hostsPerLeaf <= 0 {
		panic("netsim: two-tier topology needs at least one leaf and one host per leaf")
	}
	ids := &idAllocator{}
	root := NewSwitch(sched, ids.alloc(), "switch1")
	tt := &TwoTier{Root: root, cfg: cfg}

	// Aggregator hangs off the root.
	agg := NewHost(sched, ids.alloc(), "aggregator")
	connect(sched, agg, root, cfg)
	tt.Aggregator = agg
	tt.BottleneckPort = root.RouteTo(agg.ID())

	for li := 0; li < leaves; li++ {
		leaf := NewSwitch(sched, ids.alloc(), fmt.Sprintf("switch%d", li+2))
		rootToLeaf, leafToRoot := trunk(sched, root, leaf, cfg)
		// Aggregator (and anything not local) is reached via the root.
		leaf.AddRoute(agg.ID(), leafToRoot)

		for hi := 0; hi < hostsPerLeaf; hi++ {
			w := NewHost(sched, ids.alloc(), fmt.Sprintf("worker%d", li*hostsPerLeaf+hi))
			connect(sched, w, leaf, cfg)
			// Root reaches this worker through the leaf trunk.
			root.AddRoute(w.ID(), rootToLeaf)
			tt.Workers = append(tt.Workers, w)
		}
		tt.Leaves = append(tt.Leaves, leaf)
	}

	// Cross-leaf worker-to-worker routes (worker traffic other than to the
	// aggregator goes up to the root and back down).
	for _, leaf := range tt.Leaves {
		for _, w := range tt.Workers {
			if leaf.RouteTo(w.ID()) == nil {
				// Find this leaf's uplink: the route it uses for the
				// aggregator (which is always via the root).
				leaf.AddRoute(w.ID(), leaf.RouteTo(agg.ID()))
			}
		}
	}
	// Root routes to aggregator already installed by connect; worker routes
	// installed above.
	tt.built = append([]*Host(nil), tt.Workers...)
	return tt
}

// Reset returns the whole tree to its as-built state for the next run on a
// reset scheduler: every host, port and link reset (see Host.Reset,
// Port.Reset, Link.Reset) — ports and links to the configuration the tree
// was built with, undoing a run's fault edits — and Workers back in
// construction order, undoing a run's mirroring. Elements, routes and the
// packet pool are kept. Close every connection on the tree first: Reset
// unregisters whatever is left without disarming its timers.
func (tt *TwoTier) Reset() {
	copy(tt.Workers, tt.built)
	tt.resetHost(tt.Aggregator)
	for _, w := range tt.Workers {
		tt.resetHost(w)
	}
	tt.resetPorts(tt.Root)
	for _, leaf := range tt.Leaves {
		tt.resetPorts(leaf)
	}
}

// resetHost resets a host of the tree, its uplink and the uplink's link.
func (tt *TwoTier) resetHost(h *Host) {
	h.Reset()
	h.Uplink().Reset(PortConfig{BufferBytes: tt.cfg.HostQueueBytes})
	h.Uplink().Link().Reset(tt.cfg.LinkRateBps, tt.cfg.LinkDelay)
}

// resetPorts resets a switch's output ports and the links they feed.
func (tt *TwoTier) resetPorts(sw *Switch) {
	for _, p := range sw.Ports() {
		p.Reset(tt.cfg.SwitchPort)
		p.Link().Reset(tt.cfg.LinkRateBps, tt.cfg.LinkDelay)
	}
}

// EnablePacketPool turns on packet recycling across the whole tree and
// returns the shared pool. Call after wiring, before traffic. Handlers
// must then not retain delivered packets beyond their callback.
func (tt *TwoTier) EnablePacketPool() *packet.Pool {
	hosts := make([]*Host, 0, len(tt.Workers)+1)
	hosts = append(hosts, tt.Aggregator)
	hosts = append(hosts, tt.Workers...)
	switches := make([]*Switch, 0, len(tt.Leaves)+1)
	switches = append(switches, tt.Root)
	switches = append(switches, tt.Leaves...)
	tt.pool = &packet.Pool{}
	enablePool(tt.pool, hosts, switches)
	return tt.pool
}

// Pool returns the packet freelist EnablePacketPool attached, or nil when
// pooling is off.
func (tt *TwoTier) Pool() *packet.Pool { return tt.pool }

// Reclaim is the discard function of the tree's scheduler reset
// (sim.Scheduler.Reset): a packet riding a link at the halt is held only by
// its delivery event, so it goes back to the pool here rather than to the
// garbage collector. Any other argument is not the tree's and is left alone.
func (tt *TwoTier) Reclaim(arg any) {
	if pkt, ok := arg.(*packet.Packet); ok {
		tt.pool.Put(pkt)
	}
}

// PipelineCapacityBytes computes the paper's Pipeline Capacity C x D + B
// (§II-C) for the bottleneck path: the bandwidth-delay product across the
// given number of one-way hops plus the bottleneck port buffer.
func (c TopologyConfig) PipelineCapacityBytes(hops int) int64 {
	bdp := c.LinkRateBps * int64(c.BaseRTT(hops)) / (8 * int64(sim.Second))
	return bdp + int64(c.SwitchPort.BufferBytes)
}
