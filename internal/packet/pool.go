package packet

import "fmt"

// Pool is a freelist of Packet objects for steady-state simulations. The
// network layer frees a packet back to the pool at the points where it
// leaves the simulation — delivered to a host's transport handler,
// tail-dropped at a port, or lost on a link — and everything that sends
// mints from the pool, so a long run recirculates its in-flight working
// set instead of feeding the garbage collector per packet.
//
// One mint path: outside this package, non-test code never writes
// &packet.Packet{}. Transports and workloads alike (data, ACKs, the
// aggregator's requests) call Host.AllocPacket, which is Pool.Get. A packet
// built any other way would still be recycled at delivery, growing the
// freelist by one Packet per such send for the whole run while Minted
// stays blind to it.
//
// Pooling sharpens the ownership contract: a packet is minted once and
// then released exactly once — freed here, or handed off (Host.Send,
// Port.Enqueue, Node.Deliver) to the element that frees it. Once a packet
// is handed to the network the sender must not touch it again, and a
// delivery handler must copy out any fields it needs before returning.
// Two run-time checks hold every build to it: Put poisons each freed
// packet, so a double free panics naming the flow, and the oracle's
// conservation audit requires a drained run to return every packet it
// minted to the freelist (Minted against FreeLen), so a leak fails it.
//
// A nil *Pool is valid: Get mints fresh packets and Put discards, so call
// sites need no branches — and tests that deliberately retain delivered
// packets simply never attach one. That nil receiver is the whole of the
// "pool off" path; Topology.EnablePacketPool and the SetPool setters stay
// because cmd/perf's layer-assembled twin runs attach the pool themselves.
type Pool struct {
	free     *Packet
	minted   int64
	recycled int64
}

// poisonSeq marks a packet parked on the freelist. It is negative and far
// outside any real sequence space (senders count up from 0), so no live
// packet can carry it, and a use-after-free read of Seq is unmistakable in
// traces.
const poisonSeq int64 = -0x6B6B6B6B6B6B

// Get returns a zeroed packet, reusing a freed one when available. The
// caller owns the result and must release it exactly once (Put, or an
// ownership-transferring hand-off such as Host.Send).
func (p *Pool) Get() *Packet {
	if p == nil || p.free == nil {
		if p != nil {
			p.minted++
		}
		// A miss mints a fresh packet; steady state reuses the freed
		// working set (and a nil pool means pooling is off by choice).
		return &Packet{}
	}
	pkt := p.free
	p.free = pkt.nextFree
	pkt.nextFree = nil
	pkt.Seq, pkt.Flow = 0, 0 // un-poison: the zeroed packet Get promises
	p.recycled++
	return pkt
}

// Put recycles a packet the caller no longer owns. The packet is zeroed so
// stale header fields, flags, and hop counts cannot leak into its next use,
// then poisoned while it is parked: its Seq becomes poisonSeq and its Flow
// stays the freeing flow, so a second Put of the same packet panics naming
// that flow.
func (p *Pool) Put(pkt *Packet) {
	if p == nil || pkt == nil {
		return
	}
	if pkt.Seq == poisonSeq {
		panic(doubleFree{pkt.Flow})
	}
	flow := pkt.Flow
	*pkt = Packet{nextFree: p.free}
	pkt.Seq, pkt.Flow = poisonSeq, flow
	p.free = pkt
}

// doubleFree is Put's panic value. A value rather than a call to
// check.Failf keeps Put, called once per packet, inlinable; it prints
// with Failf's "invariant violated" prefix.
type doubleFree struct{ flow FlowID }

func (d doubleFree) Error() string {
	return fmt.Sprintf("check: invariant violated: packet double free: flow %d freed the same packet twice (seq carries freelist poison %d)",
		int32(d.flow), poisonSeq)
}

// Minted returns how many packets were freshly allocated on pool miss.
func (p *Pool) Minted() int64 {
	if p == nil {
		return 0
	}
	return p.minted
}

// Recycled returns how many Gets were served from the freelist.
func (p *Pool) Recycled() int64 {
	if p == nil {
		return 0
	}
	return p.recycled
}

// FreeLen counts the packets parked on the freelist. It walks the list, so
// it is for audits at the end of a run, not for the hot path.
func (p *Pool) FreeLen() int64 {
	if p == nil {
		return 0
	}
	var n int64
	for pkt := p.free; pkt != nil; pkt = pkt.nextFree {
		n++
	}
	return n
}
