// Package netsim models the network substrate of the DCTCP+ testbed: point
// to point links with finite rate and propagation delay, output-queued
// switches with static shared per-port buffers and ECN marking at a
// threshold K (the DCTCP AQM), and hosts that demultiplex arriving segments
// to transport endpoints.
//
// The model matches the paper's testbed (§III): NetFPGA-style GbE switches
// with a static 128KB buffer per port and K=32KB, 1Gbps host links, and a
// canonical 2-tier tree topology.
//
// Each hop is one scheduler event: when a port starts serializing a packet,
// its link schedules the packet's arrival at start + serialization +
// propagation, and the packet's wire fate (blackout, injected loss,
// propagation delay) is fixed at that start.
package netsim

import (
	"fmt"

	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
)

// Node is any element that can receive packets from a link.
type Node interface {
	ID() packet.NodeID
	// Deliver hands an arriving packet to the node. The node takes
	// ownership of the packet.
	Deliver(pkt *packet.Packet)
}

// maxHops guards against routing loops: no sane configuration of this
// simulator produces a path longer than this.
const maxHops = 32

// Link is a unidirectional point-to-point channel with a transmission rate
// and a fixed propagation delay. The Port that feeds the link paces packets
// onto it one serialization time apart; the link takes each packet as it
// starts serializing and schedules its arrival after that serialization time
// plus the propagation delay, so back-to-back packets may be "in flight"
// simultaneously (as on real wire).
type Link struct {
	sched *sim.Scheduler
	dst   Node

	// RateBps is the transmission rate in bits per second.
	RateBps int64
	// Delay is the one-way propagation delay.
	Delay sim.Duration

	// Fault injection (SetLoss): independent per-packet drop probability,
	// for robustness tests of the transport against non-congestive loss.
	lossRate  float64
	lossRNG   *sim.RNG
	lost      int64
	lostBytes int64

	// Fault injection (SetDown): while the link is down every packet that
	// starts serializing onto it is blackholed — the internal/fault
	// blackout primitive.
	down            bool
	blackholed      int64
	blackholedBytes int64

	pool      *packet.Pool // optional packet freelist; nil = pooling off
	deliverFn func(any)    // deliver, bound once at construction
}

// NewLink creates a link to dst with the given rate and propagation delay.
func NewLink(sched *sim.Scheduler, dst Node, rateBps int64, delay sim.Duration) *Link {
	l := &Link{sched: sched, dst: dst}
	l.deliverFn = l.deliver
	l.Reset(rateBps, delay)
	return l
}

// Reset returns the link, in place, to the state NewLink builds with the
// given rate and delay — for a topology, the ones it was built with, which
// undoes a run's fault edits: no loss, not down, drop counters zero. The
// endpoint, the pool and the once-bound delivery callback are kept.
func (l *Link) Reset(rateBps int64, delay sim.Duration) {
	if rateBps <= 0 {
		panic("netsim: link rate must be positive")
	}
	if delay < 0 {
		panic("netsim: negative link delay")
	}
	*l = Link{
		RateBps: rateBps,
		Delay:   delay,

		// The keep-list.
		sched:     l.sched,
		dst:       l.dst,
		pool:      l.pool,
		deliverFn: l.deliverFn,
	}
}

// SetPool attaches a packet freelist; packets dropped by fault injection
// are returned to it. Installed by Topology.EnablePacketPool.
func (l *Link) SetPool(pool *packet.Pool) { l.pool = pool }

// SerializationDelay returns the time to clock out bytes at the link rate.
func (l *Link) SerializationDelay(bytes int) sim.Duration {
	// bytes*8 bits at RateBps bits/sec, in nanoseconds.
	return sim.Duration(int64(bytes) * 8 * int64(sim.Second) / l.RateBps)
}

// SetLoss enables independent random packet loss on the link at the given
// rate in [0, 1], drawn from a stream seeded with seed. The draw is made as
// a packet starts serializing, so the rate applies to packets that start
// after the call; one already on the wire keeps the fate it started with.
// Used for fault injection; production topologies leave it at zero.
func (l *Link) SetLoss(rate float64, seed uint64) {
	if rate < 0 || rate > 1 {
		panic("netsim: loss rate out of [0,1]")
	}
	l.lossRate = rate
	l.lossRNG = sim.NewRNG(seed)
}

// Lost returns the number of packets dropped by injected random loss.
func (l *Link) Lost() int64 { return l.lost }

// LostBytes returns the bytes dropped by injected random loss.
func (l *Link) LostBytes() int64 { return l.lostBytes }

// SetDown raises or clears a link blackout. While down, every packet that
// starts serializing onto the link is blackholed (counted, then recycled);
// packets that started before the call, still serializing or propagating,
// deliver. A blackout window therefore acts on the packets that start
// inside it, which shifts its edges by at most one serialization time
// against the instants the packets finish (12 µs for a 1,500 B frame at
// 1 Gbps). Used by internal/fault for deterministic link-failure windows.
func (l *Link) SetDown(down bool) { l.down = down }

// IsDown reports whether the link is currently blacked out.
func (l *Link) IsDown() bool { return l.down }

// Blackholed returns the number of packets dropped by link blackouts.
func (l *Link) Blackholed() int64 { return l.blackholed }

// BlackholedBytes returns the bytes dropped by link blackouts.
func (l *Link) BlackholedBytes() int64 { return l.blackholedBytes }

// SetRate changes the transmission rate mid-run (fault injection: link
// degradation). The port reads the rate as each packet starts serializing,
// so the new rate applies from the next packet to start; the one on the
// wire finishes, and arrives, at the rate it started with.
func (l *Link) SetRate(rateBps int64) {
	if rateBps <= 0 {
		panic("netsim: link rate must be positive")
	}
	l.RateBps = rateBps
}

// SetDelay changes the propagation delay mid-run (fault injection: path
// rerouting / delay jitter). It applies to packets that start serializing
// after the call; packets already on the wire keep the delay they started
// with, so later packets may arrive out of order, exactly as on a real
// reroute.
func (l *Link) SetDelay(d sim.Duration) {
	if d < 0 {
		panic("netsim: negative link delay")
	}
	l.Delay = d
}

// transmit takes pkt as it starts serializing onto the wire, which it
// occupies for ser, and decides its fate now: a packet started while the
// link is down is blackholed, one the injected loss picks is lost, and the
// rest ride the one delivery event, at the destination after ser plus the
// current propagation delay. The link consumes the packet on every path:
// blackholed and lost packets go back to the pool.
func (l *Link) transmit(pkt *packet.Packet, ser sim.Duration) {
	if pkt.Hop() > maxHops {
		panic(fmt.Sprintf("netsim: packet exceeded %d hops (routing loop?): %v", maxHops, pkt))
	}
	if l.down {
		l.blackholed++
		l.blackholedBytes += int64(pkt.Size())
		l.pool.Put(pkt)
		return
	}
	if l.lossRate > 0 && l.lossRNG.Float64() < l.lossRate {
		l.lost++
		l.lostBytes += int64(pkt.Size())
		l.pool.Put(pkt)
		return
	}
	// Arg-carrying schedule with the once-bound deliverFn: several packets
	// can be on the same link concurrently, and none of them costs a
	// closure.
	l.sched.AfterArg(ser+l.Delay, l.deliverFn, pkt)
}

// deliver hands an arriving packet to the destination node. It runs as a
// scheduler callback, and everything per-packet downstream (switch
// forwarding, host demux, TCP ACK processing, congestion control) runs
// under it.
func (l *Link) deliver(arg any) {
	l.dst.Deliver(arg.(*packet.Packet))
}
