package netsim

import (
	"fmt"

	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
)

// FlowHandler receives packets addressed to one transport flow.
type FlowHandler interface {
	Deliver(pkt *packet.Packet)
}

// FlowHandlerFunc adapts a function to the FlowHandler interface.
type FlowHandlerFunc func(pkt *packet.Packet)

// Deliver calls f(pkt).
func (f FlowHandlerFunc) Deliver(pkt *packet.Packet) { f(pkt) }

// Host is an end system: it owns one uplink port toward its access switch
// and demultiplexes arriving packets to registered transport endpoints by
// flow id. Application-level request packets (FlagREQ) are routed to a
// control handler instead, which is how the incast aggregator's requests
// reach worker applications.
type Host struct {
	id    packet.NodeID
	name  string
	sched *sim.Scheduler

	uplink *Port
	flows  packet.FlowTable[FlowHandler]
	pool   *packet.Pool // optional packet freelist; nil = pooling off

	delivered      int64 // packets handed to Deliver (any disposition)
	deliveredBytes int64

	// OnControl handles REQ packets (application requests).
	OnControl func(pkt *packet.Packet)
	// OnDeliver, if set, observes every arriving packet before demux — data
	// with its final (post-marking) ECN codepoint and returning ACKs alike,
	// in the exact order the endpoint processes them, which is what lets the
	// oracle conformance layer replay a host's ingress synchronously even
	// under fault-induced reordering. The packet is recycled after demux;
	// observers must copy fields out synchronously.
	OnDeliver func(pkt *packet.Packet)
}

// NewHost creates a host. The uplink is attached by the topology builder
// through SetUplink.
func NewHost(sched *sim.Scheduler, id packet.NodeID, name string) *Host {
	return &Host{
		id:    id,
		name:  name,
		sched: sched,
	}
}

// Reset returns the host to its as-built state for the next run on a reset
// scheduler: no flow registered (the demux table keeps its array), delivery
// counters zero, the OnControl/OnDeliver hooks cleared.
// Identity, scheduler, uplink wiring, pool and the demux array are kept;
// the uplink port has its own Reset.
func (h *Host) Reset() {
	h.flows.Clear()
	*h = Host{
		id:   h.id,
		name: h.name,

		// The keep-list.
		sched:  h.sched,
		uplink: h.uplink,
		pool:   h.pool,
		flows:  h.flows,
	}
}

// ID returns the host's node id.
func (h *Host) ID() packet.NodeID { return h.id }

// Scheduler returns the event scheduler driving this host.
func (h *Host) Scheduler() *sim.Scheduler { return h.sched }

// SetUplink attaches the host's single output port.
func (h *Host) SetUplink(p *Port) { h.uplink = p }

// SetPool attaches a packet freelist: AllocPacket draws from it and Deliver
// frees consumed packets back to it. Installed by Topology.EnablePacketPool.
func (h *Host) SetPool(pool *packet.Pool) { h.pool = pool }

// AllocPacket returns a zeroed packet for the transport to fill and Send.
// With no pool attached it simply allocates.
func (h *Host) AllocPacket() *packet.Packet { return h.pool.Get() }

// Uplink returns the host's output port (nil before wiring).
func (h *Host) Uplink() *Port { return h.uplink }

// DeliveredPkts returns the number of packets this host has received
// (control, data and unclaimed alike) — the delivery side of the
// conservation ledger: sent = delivered + dropped + lost + blackholed.
func (h *Host) DeliveredPkts() int64 { return h.delivered }

// DeliveredBytes returns the bytes this host has received.
func (h *Host) DeliveredBytes() int64 { return h.deliveredBytes }

// Register binds a flow id to a transport endpoint. Registering the same
// flow twice panics: flow ids are globally unique in this simulator.
func (h *Host) Register(flow packet.FlowID, fh FlowHandler) {
	if !h.flows.Insert(flow, fh) {
		panic(fmt.Sprintf("netsim: flow %d already registered on %s", flow, h.name))
	}
}

// Unregister removes a flow binding (e.g. when a connection closes).
func (h *Host) Unregister(flow packet.FlowID) {
	h.flows.Delete(flow)
}

// Send stamps the packet's source and injects it into the host's uplink.
// Ownership moves with the packet: from here it is the network's to drop,
// lose or deliver, and the sender must not touch it again.
func (h *Host) Send(pkt *packet.Packet) {
	if h.uplink == nil {
		panic(fmt.Sprintf("netsim: host %s has no uplink", h.name))
	}
	pkt.Src = h.id
	h.uplink.Enqueue(pkt)
}

// Deliver demultiplexes an arriving packet (one for an unregistered flow is
// discarded, like an RST-less drop). The host is the packet's final
// owner: once the handler returns, the packet is recycled (when a pool is
// attached), so handlers must copy out any fields they keep.
func (h *Host) Deliver(pkt *packet.Packet) {
	h.delivered++
	h.deliveredBytes += int64(pkt.Size())
	if h.OnDeliver != nil {
		h.OnDeliver(pkt)
	}
	if pkt.Flags.Has(packet.FlagREQ) {
		if h.OnControl != nil {
			h.OnControl(pkt)
		}
	} else if fh, ok := h.flows.Get(pkt.Flow); ok {
		fh.Deliver(pkt)
	}
	h.pool.Put(pkt)
}
