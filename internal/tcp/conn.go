package tcp

import (
	"dctcpplus/internal/netsim"
	"dctcpplus/internal/packet"
)

// Conn pairs a sender and receiver over a shared flow id, modeling one
// pre-established connection (the incast benchmark reuses its connections
// across rounds, so the experiments never pay a handshake; see DESIGN.md
// for this simplification). Both endpoints, their timers, RTT estimator and
// random stream live inside the Conn: one allocation, plus the callbacks
// bound at the first open.
//
// Lifecycle: NewConn opens the connection; Close disarms its timers and
// unregisters both endpoints; Reopen puts a closed Conn through the same
// initialiser NewConn used, under a new flow id, so a workload that churns
// through short connections (the §VI-D mix) recycles them instead of
// allocating. A reopened connection is a fresh one — window, sequence
// space, estimator, counters, hooks, sinks, telemetry reset, the random
// stream restarted from cfg.Seed — except that it keeps its timers and
// pacing callback (still bound to it) and the receiver's scratch capacity.
// Flow ids are never reused: a closed flow's stragglers still in the
// network must find no handler at the host, not the connection's next
// tenant.
type Conn struct {
	Sender   *Sender
	Receiver *Receiver

	// Storage the two exported pointers refer to.
	snd Sender
	rcv Receiver
}

// NewConn wires a persistent connection carrying data from the sender host
// to the receiver host under the given flow id. cc provides the sender's
// congestion-control module.
func NewConn(cfg Config, cc CongestionControl, from, to *netsim.Host, flow packet.FlowID) *Conn {
	c := &Conn{}
	c.Sender, c.Receiver = &c.snd, &c.rcv
	c.Reopen(cfg, cc, from, to, flow)
	return c
}

// Reopen re-initialises a closed connection for a new flow, exactly as
// NewConn would a new one; hooks (OnComplete, OnData), sink subscribers
// and telemetry must be attached again. Reopening a connection that is
// still open is an invariant violation.
func (c *Conn) Reopen(cfg Config, cc CongestionControl, from, to *netsim.Host, flow packet.FlowID) {
	c.snd.open(cfg, cc, from, to.ID(), flow)
	c.rcv.open(cfg, to, from.ID(), flow)
}

// Close unregisters both endpoints.
func (c *Conn) Close() {
	c.Sender.Close()
	c.Receiver.Close()
}
