// Package packet defines the wire-level unit exchanged by simulated hosts:
// a TCP/IP segment model with the fields the DCTCP+ experiments need —
// sequence/acknowledgement numbers, the ECN codepoints manipulated by
// switches (ECT/CE), and the ECN-Echo / CWR TCP flags used by the
// congestion-control feedback loop.
package packet

import (
	"fmt"

	"dctcpplus/internal/sim"
)

// NodeID identifies a host or switch in the simulated network.
type NodeID int32

// FlowID identifies one transport connection (one direction of data).
type FlowID int32

// Flags is a bit set of TCP header flags.
type Flags uint16

// TCP flag bits. REQ is not a real TCP flag: it marks application-level
// request packets carried outside a data connection (the aggregator's
// "send me 1MB/N bytes" message), which lets the incast workload model the
// request leg as real network traffic sharing links with ACKs.
const (
	FlagSYN Flags = 1 << iota
	FlagACK
	FlagFIN
	FlagECE // ECN-Echo: receiver -> sender congestion signal
	FlagCWR // Congestion Window Reduced: sender -> receiver
	FlagREQ // application request marker (simulation-level)
)

// Has reports whether all bits in mask are set.
func (f Flags) Has(mask Flags) bool { return f&mask == mask }

// String renders the flags as a compact mnemonic list.
func (f Flags) String() string {
	s := ""
	add := func(cond bool, name string) {
		if cond {
			if s != "" {
				s += "|"
			}
			s += name
		}
	}
	add(f.Has(FlagSYN), "SYN")
	add(f.Has(FlagACK), "ACK")
	add(f.Has(FlagFIN), "FIN")
	add(f.Has(FlagECE), "ECE")
	add(f.Has(FlagCWR), "CWR")
	add(f.Has(FlagREQ), "REQ")
	if s == "" {
		return "-"
	}
	return s
}

// ECN is the two-bit IP ECN codepoint.
type ECN uint8

// ECN codepoints (RFC 3168). The simulator only distinguishes NotECT,
// ECT (capable) and CE (congestion experienced).
const (
	NotECT ECN = iota // transport not ECN-capable; switch drops instead of marking
	ECT               // ECN-capable transport
	CE                // congestion experienced (set by switches above threshold K)
)

func (e ECN) String() string {
	switch e {
	case NotECT:
		return "NotECT"
	case ECT:
		return "ECT"
	case CE:
		return "CE"
	}
	return fmt.Sprintf("ECN(%d)", uint8(e))
}

// Header/payload size constants. We model standard Ethernet framing:
// 1500-byte MTU, 40 bytes of TCP/IP headers, hence a 1460-byte MSS.
// The paper's arithmetic (§IV-C) treats "1 MSS" as 1.5KB on the wire,
// which is exactly header+MSS here.
const (
	HeaderBytes = 40   // TCP/IP header overhead per segment
	MTU         = 1500 // max on-wire IP packet size
	MSS         = MTU - HeaderBytes
)

// Packet is one simulated segment. Packets are passed by pointer and owned
// by exactly one network element at a time; they are never shared, so no
// locking is required in the single-threaded event loop.
//
// Every packet is minted by Pool.Get (Host.AllocPacket) — no non-test code
// outside this package builds a Packet literal — and released exactly
// once: freed by Pool.Put, or handed off into the network, whose element
// that drops, destroys or delivers it frees it. Every build checks this at
// run time (see Pool): a double free panics, and the oracle's pool ledger
// fails a drained run that leaked a packet.
type Packet struct {
	Src, Dst NodeID
	Flow     FlowID

	Seq   int64 // first payload byte carried (senders), or 0
	AckNo int64 // cumulative ACK (when FlagACK set)
	// Payload is the payload bytes carried (0 for pure ACKs/requests),
	// never negative.
	Payload int
	Flags   Flags
	ECN     ECN

	// SendTime is stamped by the transport when the segment is first handed
	// to the network, for RTT sampling and tracing.
	SendTime sim.Time

	// Retransmit marks segments re-sent after loss; RTT samples from these
	// are discarded (Karn's algorithm).
	Retransmit bool

	// ReqBytes carries the requested response size on REQ packets.
	ReqBytes int64

	// hops counts forwarding steps, to catch routing loops in tests.
	// int64 so a (hypothetical) unbounded forwarding loop cannot wrap the
	// counter before the netsim maxHops guard catches it.
	hops int64

	// nextFree links recycled packets inside a Pool.
	nextFree *Packet
}

// Size returns the on-wire size in bytes: payload plus header overhead.
func (p *Packet) Size() int { return p.Payload + HeaderBytes }

// End returns the sequence number one past the last payload byte.
func (p *Packet) End() int64 { return p.Seq + int64(p.Payload) }

// IsData reports whether the packet carries payload bytes.
func (p *Packet) IsData() bool { return p.Payload > 0 }

// IsAck reports whether the packet is a pure acknowledgement.
func (p *Packet) IsAck() bool { return p.Flags.Has(FlagACK) && p.Payload == 0 }

// Hop increments and returns the forwarding hop count. Network elements
// call this on every forward; anything beyond a sane diameter indicates a
// routing loop and is treated as a model bug by the switch.
func (p *Packet) Hop() int64 {
	p.hops++
	return p.hops
}

// Hops returns the number of forwarding steps so far.
func (p *Packet) Hops() int64 { return p.hops }

// String formats the packet for traces and test failures.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt{%d->%d flow=%d seq=%d ack=%d len=%d %v %v}",
		p.Src, p.Dst, p.Flow, p.Seq, p.AckNo, p.Payload, p.Flags, p.ECN)
}
