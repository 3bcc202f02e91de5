package netsim

import (
	"dctcpplus/internal/check"
	"dctcpplus/internal/obs"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/telemetry"
)

// PortStats counts the traffic handled by one output port.
type PortStats struct {
	EnqueuedPkts  int64
	EnqueuedBytes int64
	DequeuedPkts  int64
	DroppedPkts   int64
	DroppedBytes  int64
	MarkedPkts    int64 // packets whose ECN codepoint was set to CE
	MaxQueueBytes int   // high-water mark of the queue depth
}

// MarkPolicy selects the port's ECN marking discipline.
type MarkPolicy int

const (
	// MarkInstantaneous is the DCTCP switch rule: mark every ECN-capable
	// packet arriving while the instantaneous queue exceeds K. This is
	// what the paper's NetFPGA switches implement.
	MarkInstantaneous MarkPolicy = iota
	// MarkPhantomQueue implements HULL's Phantom Queue (Alizadeh et al.,
	// NSDI 2012 — §VII names HULL as a composition target): a virtual
	// counter drains at PhantomDrainFactor x link rate and marks once it
	// exceeds PhantomThresholdBytes. Because the phantom queue grows
	// whenever utilization exceeds the drain factor, marking starts before
	// any real queue builds — trading ~ (1 - factor) of bandwidth for
	// near-empty buffers.
	MarkPhantomQueue
)

// PortConfig describes one output port's buffering and AQM behaviour.
type PortConfig struct {
	// BufferBytes is the static buffer associated with the port. Packets
	// arriving when the queue cannot hold them are tail-dropped. The
	// paper's switches use 128KB per port. It must be positive.
	BufferBytes int

	// MarkThresholdBytes is the DCTCP ECN threshold K: "the switch sets the
	// ECN bit for all the incoming packets once the queue length exceeds
	// the reference buffer threshold K" (§II-A). Zero disables marking
	// (a plain drop-tail port). The paper sets K=32KB.
	MarkThresholdBytes int

	// Policy selects the marking discipline (default MarkInstantaneous).
	Policy MarkPolicy

	// PhantomDrainFactor (gamma, e.g. 0.95) and PhantomThresholdBytes
	// (e.g. 3KB) parameterize MarkPhantomQueue.
	PhantomDrainFactor    float64
	PhantomThresholdBytes int
}

// HULLPortConfig returns a phantom-queue port preset in the spirit of the
// HULL paper: gamma = 0.95, marking threshold 3KB, on top of the testbed's
// 128KB buffer.
func HULLPortConfig() PortConfig {
	return PortConfig{
		BufferBytes:           128 << 10,
		Policy:                MarkPhantomQueue,
		PhantomDrainFactor:    0.95,
		PhantomThresholdBytes: 3 << 10,
	}
}

// DefaultPortConfig returns the paper's switch settings.
func DefaultPortConfig() PortConfig {
	return PortConfig{BufferBytes: 128 << 10, MarkThresholdBytes: 32 << 10}
}

// Port is an output-queued switch/host port: a byte-limited FIFO drained at
// the attached link's rate. ECN marking happens on enqueue, against the
// instantaneous queue occupancy (exactly the DCTCP switch rule) or against
// HULL's phantom queue; neither draws a random number.
//
// A hop costs one scheduler event. A packet leaves the queue when it starts
// serializing, and the link schedules its delivery for then. The port only
// remembers when the wire frees (busyUntil). It arms a wake-up for that
// instant only while a packet is waiting behind the one on the wire, so a
// packet that finds the port idle costs its delivery and nothing else.
type Port struct {
	sched *sim.Scheduler
	link  *Link
	cfg   PortConfig

	// q is a power-of-two ring buffer holding the FIFO: qLen packets
	// starting at qHead. A ring (instead of append/slice-off) keeps the
	// backing array at its high-water capacity, so steady-state
	// enqueue/dequeue never allocates.
	q     []*packet.Packet
	qHead int
	qLen  int
	// qBytes is the queue occupancy: tail drop in Enqueue rejects any
	// arrival that would push it past the static buffer, so it stays in
	// [0, cfg.BufferBytes].
	qBytes int
	// busyUntil is when the packet last started finishes serializing; the
	// next one may start no earlier. waking is set while the wake-up for
	// that instant is scheduled.
	busyUntil sim.Time
	waking    bool
	paused    bool         // fault injection: frozen serialization (host stall)
	pool      *packet.Pool // optional packet freelist; nil = pooling off
	wakeFn    func(any)    // wake, bound once at construction

	// Phantom queue state (MarkPhantomQueue).
	vqBytes  float64
	vqLastAt sim.Time

	stats PortStats

	// The queue-depth histogram; nil (no-op) unless AttachTelemetry was
	// called. The enqueue, drop and mark counts are stats' alone.
	mQueueDepth *telemetry.Histogram

	// Sink receives an obs.Transmit record, with the packet, as each packet
	// begins serializing onto the link.
	Sink obs.Sink
}

// NewPort creates a port feeding the given link.
func NewPort(sched *sim.Scheduler, link *Link, cfg PortConfig) *Port {
	cfg.validate()
	p := &Port{sched: sched, link: link, cfg: cfg}
	p.wakeFn = p.wake
	return p
}

// validate panics on a configuration no port can run with.
func (cfg PortConfig) validate() {
	if cfg.BufferBytes <= 0 {
		panic("netsim: port buffer must be positive")
	}
	if cfg.Policy == MarkPhantomQueue {
		switch {
		case cfg.PhantomDrainFactor <= 0 || cfg.PhantomDrainFactor > 1:
			panic("netsim: phantom drain factor out of (0,1]")
		case cfg.PhantomThresholdBytes <= 0:
			panic("netsim: phantom threshold must be positive")
		}
	}
}

// Reset returns the port, in place, to the state NewPort builds with cfg —
// for a topology, the configuration it was built with, which undoes a run's
// fault edits — ready for the next run on a reset scheduler: the queue
// emptied (its packets back to the pool, the ring's capacity kept), the
// phantom queue, stats, sink subscribers and telemetry instruments cleared.
// The wiring, the pool and the once-bound wake-up callback are kept; the
// link it feeds has its own Reset.
func (p *Port) Reset(cfg PortConfig) {
	cfg.validate()
	for p.qLen > 0 {
		p.pool.Put(p.pop())
	}
	*p = Port{
		cfg: cfg,

		// The keep-list.
		sched:  p.sched,
		link:   p.link,
		q:      p.q,
		pool:   p.pool,
		wakeFn: p.wakeFn,
	}
}

// SetPool attaches a packet freelist; tail-dropped packets are returned to
// it. Installed by Topology.EnablePacketPool.
func (p *Port) SetPool(pool *packet.Pool) { p.pool = pool }

// push appends a packet at the tail of the ring, growing it when full.
// An in-queue packet's ownership parks in its ring slot until pop hands it
// to the serializer.
func (p *Port) push(pkt *packet.Packet) {
	if p.qLen == len(p.q) {
		p.grow()
	}
	p.q[(p.qHead+p.qLen)&(len(p.q)-1)] = pkt
	// Every queued packet occupies at least HeaderBytes of the finite
	// buffer, so qLen is bounded by BufferBytes/HeaderBytes.
	p.qLen++
}

// pop removes and returns the head-of-line packet. Caller checks qLen > 0.
// Ownership leaves the ring with the packet.
func (p *Port) pop() *packet.Packet {
	pkt := p.q[p.qHead]
	p.q[p.qHead] = nil
	p.qHead = (p.qHead + 1) & (len(p.q) - 1)
	p.qLen--
	return pkt
}

// grow doubles the ring, unwrapping the queue to the front.
func (p *Port) grow() {
	n := 2 * len(p.q)
	if n == 0 {
		n = 16
	}
	nq := make([]*packet.Packet, n)
	for i := 0; i < p.qLen; i++ {
		nq[i] = p.q[(p.qHead+i)&(len(p.q)-1)]
	}
	p.q = nq
	p.qHead = 0
}

// phantomUpdate drains the virtual queue for elapsed time and adds the
// arriving packet, returning the post-arrival occupancy.
func (p *Port) phantomUpdate(size int) float64 {
	now := p.sched.Now()
	elapsed := now.Sub(p.vqLastAt).Seconds()
	p.vqLastAt = now
	drain := float64(p.cfg.PhantomDrainFactor * float64(p.link.RateBps) / 8 * elapsed)
	p.vqBytes -= drain
	if p.vqBytes < 0 {
		p.vqBytes = 0
	}
	p.vqBytes += float64(size)
	return p.vqBytes
}

// PhantomQueueBytes returns the current virtual-queue occupancy (only
// meaningful under MarkPhantomQueue).
func (p *Port) PhantomQueueBytes() float64 { return p.vqBytes }

// shouldMark applies the configured marking discipline against the queue
// occupancy seen by an arriving packet.
func (p *Port) shouldMark(qBytes int) bool {
	switch p.cfg.Policy {
	case MarkInstantaneous:
		return p.cfg.MarkThresholdBytes > 0 && qBytes > p.cfg.MarkThresholdBytes
	case MarkPhantomQueue:
		// Decision is made against the virtual queue, updated by Enqueue
		// before calling shouldMark; qBytes (the real queue) is unused.
		return p.vqBytes > float64(p.cfg.PhantomThresholdBytes)
	default:
		panic("netsim: unknown mark policy")
	}
}

// AttachTelemetry registers the port's queue-depth histogram on reg under
// the given labels, observed at every enqueue. With a nil registry it stays
// nil and every update is a no-op. The enqueue, drop and CE-mark counters
// are added from Stats at the end of a run by whoever registered them.
func (p *Port) AttachTelemetry(reg *telemetry.Registry, labels ...telemetry.Label) {
	p.mQueueDepth = reg.Histogram("netsim_port_queue_depth_bytes", labels...)
}

// QueueBytes returns the instantaneous queue occupancy in bytes.
func (p *Port) QueueBytes() int { return p.qBytes }

// QueueLen returns the number of queued packets.
func (p *Port) QueueLen() int { return p.qLen }

// Stats returns a snapshot of the port counters.
func (p *Port) Stats() PortStats { return p.stats }

// Config returns the port configuration.
func (p *Port) Config() PortConfig { return p.cfg }

// Link returns the attached outgoing link.
func (p *Port) Link() *Link { return p.link }

// SetBufferBytes changes the port's static buffer mid-run (fault
// injection: buffer resizing). Shrinking below the current occupancy is
// allowed — queued packets stay, but no arrival is admitted until the
// queue drains under the new limit.
func (p *Port) SetBufferBytes(n int) {
	if n <= 0 {
		panic("netsim: port buffer must be positive")
	}
	p.cfg.BufferBytes = n
}

// SetMarkThreshold changes the ECN marking threshold K mid-run (fault
// injection: AQM parameter drift). Zero disables marking.
func (p *Port) SetMarkThreshold(n int) {
	if n < 0 {
		panic("netsim: negative mark threshold")
	}
	p.cfg.MarkThresholdBytes = n
}

// Pause freezes the port: packets still enqueue (and tail-drop against the
// buffer), but nothing new starts serializing until Resume. A packet
// already being clocked out finishes normally. This is the internal/fault
// host-stall primitive (a GC-pause-style sender freeze).
func (p *Port) Pause() { p.paused = true }

// Resume unfreezes a paused port and restarts transmission: at once if no
// packet is mid-serialization, else as soon as that packet finishes.
func (p *Port) Resume() {
	p.paused = false
	p.kick()
}

// Enqueue accepts a packet for transmission. If the static buffer cannot
// hold it, the packet is dropped (tail drop). If the instantaneous queue
// occupancy exceeds the marking threshold K and the packet is ECN-capable,
// its codepoint is set to CE. Either way the packet is consumed: dropped
// ones return to the pool, accepted ones park in the ring until
// transmission.
func (p *Port) Enqueue(pkt *packet.Packet) {
	size := pkt.Size()
	if p.qBytes+size > p.cfg.BufferBytes {
		p.stats.DroppedPkts++
		p.stats.DroppedBytes += int64(size)
		p.pool.Put(pkt)
		return
	}
	// Marking rule: evaluate the discipline against the queue length seen
	// by the arriving packet. Marking applies only to ECN-capable packets;
	// NotECT traffic (plain TCP without ECN) would be dropped by a real
	// RED/ECN switch only above the buffer limit, which tail drop covers.
	// The phantom queue accounts every accepted arrival (ECT or not), as
	// HULL's virtual counter sits on the link, not the transport.
	if p.cfg.Policy == MarkPhantomQueue {
		p.phantomUpdate(size)
	}
	if pkt.ECN == packet.ECT && p.shouldMark(p.qBytes) {
		pkt.ECN = packet.CE
		p.stats.MarkedPkts++
	}
	p.push(pkt)
	p.qBytes += size
	check.AtMost("netsim.port queue bytes", int64(p.qBytes), int64(p.cfg.BufferBytes))
	p.stats.EnqueuedPkts++
	p.stats.EnqueuedBytes += int64(size)
	p.mQueueDepth.Observe(int64(p.qBytes))
	if p.qBytes > p.stats.MaxQueueBytes {
		p.stats.MaxQueueBytes = p.qBytes
	}
	p.kick()
}

// kick starts the head-of-line packet as soon as the port may: now if the
// wire is free, else at busyUntil through the wake-up. It does nothing while
// paused, with an empty queue, or with the wake-up already scheduled — the
// wake-up then starts the head itself.
func (p *Port) kick() {
	if p.paused || p.qLen == 0 || p.waking {
		return
	}
	if p.sched.Now() < p.busyUntil {
		p.armWake()
		return
	}
	p.transmitNext()
}

// armWake schedules the wake-up at busyUntil. The arg-carrying schedule with
// the once-bound wakeFn creates no closure on the per-packet path.
func (p *Port) armWake() {
	p.waking = true
	p.sched.AtArg(p.busyUntil, p.wakeFn, nil)
}

// wake fires when the wire frees while a packet is waiting, and starts the
// head of the queue (unless a Pause came in between).
func (p *Port) wake(any) {
	p.waking = false
	p.kick()
}

// transmitNext clocks the head-of-line packet onto the link: it leaves the
// queue now, the link schedules its arrival at the far end in the same step,
// and the port stays busy for its serialization time. If more packets wait,
// the wake-up at busyUntil starts the next one.
func (p *Port) transmitNext() {
	pkt := p.pop()
	size := pkt.Size()
	p.qBytes -= size
	check.NonNegative("netsim.port queue bytes", int64(p.qBytes))
	p.stats.DequeuedPkts++
	if p.Sink.Active() {
		p.Sink.Emit(obs.Record{At: p.sched.Now(), Flow: pkt.Flow, Kind: obs.Transmit}, pkt)
	}
	ser := p.link.SerializationDelay(size)
	p.busyUntil = p.sched.Now().Add(ser)
	p.link.transmit(pkt, ser)
	if p.qLen > 0 {
		p.armWake()
	}
}
