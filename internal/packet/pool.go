package packet

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
// Pooling sharpens the ownership contract: once a packet is handed to the
// network, the sender must not touch it again, and a delivery handler must
// copy out any fields it needs before returning. All shipped transports
// and taps obey this.
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

// Get returns a zeroed packet, reusing a freed one when available. The
// caller owns the result and must release it exactly once (Put, or an
// ownership-transferring hand-off such as Host.Send).
//
// state: mint
//
//hot:path
func (p *Pool) Get() *Packet {
	if p == nil || p.free == nil {
		if p != nil {
			p.minted++
		}
		//lint:allow hotalloc pool miss mints a fresh packet; steady state reuses the freed working set (and a nil pool means pooling is off by choice)
		return &Packet{}
	}
	pkt := p.free
	p.free = pkt.nextFree
	pkt.nextFree = nil
	poolPoisonClear(pkt)
	p.recycled++
	return pkt
}

// Put recycles a packet the caller no longer owns. The packet is zeroed so
// stale header fields, flags, and hop counts cannot leak into its next use.
//
// state: kill pkt
func (p *Pool) Put(pkt *Packet) {
	if p == nil || pkt == nil {
		return
	}
	poolPoisonCheck(pkt)
	flow := pkt.Flow
	*pkt = Packet{nextFree: p.free}
	poolPoisonArm(pkt, flow)
	p.free = pkt
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
