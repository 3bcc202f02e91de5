// Package ownclean exercises the legal ownership hand-off chain through
// the real annotated types: packets minted from the pool and released on
// every path via Port/Link/Host transfers, and the scheduler handle and
// timer transitions used as documented. The typestate analyzer must stay
// silent here.
package ownclean

import (
	"dctcpplus/internal/netsim"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
)

// RoundTrip mints a packet and either hands it to the network (ownership
// leaves with Send) or returns it to the pool.
func RoundTrip(h *netsim.Host, pool *packet.Pool, cond bool) {
	pkt := h.AllocPacket()
	pkt.Flow = 7
	if cond {
		h.Send(pkt)
	} else {
		pool.Put(pkt)
	}
}

// Forward hands a packet to each exported stage of the Port -> Link -> Host
// chain (the link's entry point is internal to netsim, reached only through
// the port); every stage takes ownership.
func Forward(port *netsim.Port, host *netsim.Host, pool *packet.Pool) {
	a := pool.Get()
	port.Enqueue(a)
	c := pool.Get()
	host.Deliver(c)
}

// Handles uses the scheduler handle and timer exactly as the contracts
// document: cancel once, reset/stop in declared states.
func Handles(s *sim.Scheduler) {
	e := s.After(3, func() {})
	s.Cancel(e)
	t := sim.NewTimer(s, func() {})
	t.Reset(5)
	t.Stop()
}
