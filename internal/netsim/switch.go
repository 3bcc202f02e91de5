package netsim

import (
	"fmt"

	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
)

// Switch is an output-queued store-and-forward switch. Each output port has
// its own static buffer (the paper's "static 128KB shared buffer in each
// port") and applies the DCTCP marking rule independently. Forwarding is by
// a static routing table mapping destination hosts to output ports.
type Switch struct {
	id    packet.NodeID
	name  string
	sched *sim.Scheduler

	ports []*Port
	// routes is indexed by destination NodeID (small dense integers minted
	// by the topology builder); nil where no route is installed. A slice,
	// not a map: this is one lookup per switch hop.
	routes []*Port
}

// NewSwitch creates a switch with no ports. Ports are added with AddPort
// and routes installed with AddRoute by the topology builder.
func NewSwitch(sched *sim.Scheduler, id packet.NodeID, name string) *Switch {
	return &Switch{id: id, name: name, sched: sched}
}

// ID returns the switch's node id.
func (s *Switch) ID() packet.NodeID { return s.id }

// AddPort attaches an output port feeding a link to a neighbour and
// returns it.
func (s *Switch) AddPort(link *Link, cfg PortConfig) *Port {
	p := NewPort(s.sched, link, cfg)
	s.ports = append(s.ports, p)
	return p
}

// Ports returns all output ports in attachment order.
func (s *Switch) Ports() []*Port { return s.ports }

// AddRoute installs dst -> out in the forwarding table.
func (s *Switch) AddRoute(dst packet.NodeID, out *Port) {
	for int(dst) >= len(s.routes) {
		s.routes = append(s.routes, nil)
	}
	s.routes[dst] = out
}

// RouteTo returns the output port used to reach dst, or nil.
func (s *Switch) RouteTo(dst packet.NodeID) *Port {
	if dst < 0 || int(dst) >= len(s.routes) {
		return nil
	}
	return s.routes[dst]
}

// SwitchStats aggregates counters over all of a switch's output ports.
type SwitchStats struct {
	Ports         int
	EnqueuedPkts  int64
	DequeuedPkts  int64
	DroppedPkts   int64
	DroppedBytes  int64
	MarkedPkts    int64
	MaxQueueBytes int // deepest queue reached on any port
}

// AggregateStats sums the per-port counters.
func (s *Switch) AggregateStats() SwitchStats {
	agg := SwitchStats{Ports: len(s.ports)}
	for _, p := range s.ports {
		st := p.Stats()
		agg.EnqueuedPkts += st.EnqueuedPkts
		agg.DequeuedPkts += st.DequeuedPkts
		agg.DroppedPkts += st.DroppedPkts
		agg.DroppedBytes += st.DroppedBytes
		agg.MarkedPkts += st.MarkedPkts
		if st.MaxQueueBytes > agg.MaxQueueBytes {
			agg.MaxQueueBytes = st.MaxQueueBytes
		}
	}
	return agg
}

// Deliver forwards an arriving packet toward its destination. An unknown
// destination panics: the topologies in this repository are fully
// statically routed, so a miss is always a wiring bug.
func (s *Switch) Deliver(pkt *packet.Packet) {
	out := s.RouteTo(pkt.Dst)
	if out == nil {
		panic(fmt.Sprintf("netsim: %s has no route to node %d (pkt %v)", s.name, pkt.Dst, pkt))
	}
	out.Enqueue(pkt)
}
