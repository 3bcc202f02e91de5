// Package obs is the one observation point per layer event: a port, sender
// or receiver emits a fixed Record into its Sink, and any number of
// subscribers join the Sink without knowing about each other. Subscribers
// are func values, not an interface, so the call-graph analysis does not
// expand an emission into every subscriber's reporting code, and the
// record passes by value, so emitting allocates nothing.
package obs

import (
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
)

// Kind says which event a Record reports.
type Kind uint8

const (
	Transmit     Kind = iota // a port starts serializing the packet passed with the record
	AckSent                  // a receiver emits the ACK passed with the record, before host queueing
	AckProcessed             // a sender finished processing an ACK, every state update done
	Timeout                  // a sender's RTO fired, before the window collapses and snd_nxt rewinds
)

// Record is one observed event.
type Record struct {
	At      sim.Time
	Flow    packet.FlowID
	Kind    Kind
	ECE     bool  // AckSent, AckProcessed: the ACK's ECN-Echo flag
	Timeout uint8 // Timeout: the tcp.TimeoutKind
}

// Func is a subscriber. pkt is borrowed for the call only — the network
// recycles it afterwards — and nil for a sender's records.
type Func func(r Record, pkt *packet.Packet)

// Sub is one subscription. The subscriber owns it, so joining a sink
// allocates nothing beyond the Func; a Sub serves one sink at a time.
type Sub struct {
	fn   Func
	next *Sub
}

// Sink is an emission point's subscribers, called in the order they
// joined. The zero Sink has none, and the emitter's Reset or reopen
// empties it again.
type Sink struct{ head *Sub }

// Subscribe adds fn to the sink through sub.
func (s *Sink) Subscribe(sub *Sub, fn Func) {
	at := &s.head
	for ; *at != nil; at = &(*at).next {
		if *at == sub {
			panic("obs: Sub subscribed twice")
		}
	}
	sub.fn, sub.next = fn, nil
	*at = sub
}

// Active reports whether anyone listens: an emitter checks it before
// building a record, so an unobserved event costs one nil check.
func (s Sink) Active() bool { return s.head != nil }

// Emit calls every subscriber with r and the borrowed pkt.
func (s Sink) Emit(r Record, pkt *packet.Packet) {
	for n := s.head; n != nil; n = n.next {
		n.fn(r, pkt)
	}
}
