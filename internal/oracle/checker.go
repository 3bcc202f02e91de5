package oracle

import (
	"fmt"

	"dctcpplus/internal/check"
	"dctcpplus/internal/core"
	"dctcpplus/internal/netsim"
	"dctcpplus/internal/obs"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/tcp"
)

const (
	// ringEvents is the global event-window depth kept for violation
	// minimization.
	ringEvents = 256
	// windowEvents caps the minimized per-violation trace.
	windowEvents = 16
	// maxViolations bounds the retained violation list; further failures
	// only increment the total counter.
	maxViolations = 64
)

// Checker replays simulator events through the conformance oracles. Create
// one per run with NewChecker, attach endpoints and topology before
// traffic starts, and call Finish after the run to collect violations.
// All methods are no-ops on a nil receiver, so callers can hold a nil
// *Checker when conformance checking is disabled.
type Checker struct {
	sched *sim.Scheduler

	flows packet.FlowTable[*flowState] // every attached flow
	order []packet.FlowID              // attach order, for deterministic reporting

	hosts map[packet.NodeID]bool // hosts whose taps are installed
	tt    *netsim.TwoTier        // for the conservation ledger (optional)

	ring [ringEvents]Event
	// ringLen is the ring's fill level, capped by the guard on its only
	// increment at ringEvents (256) once the ring has wrapped.
	ringLen int
	ringPos int

	violations []Violation
	total      int64
}

// NewChecker creates a conformance checker bound to the run's scheduler.
func NewChecker(sched *sim.Scheduler) *Checker {
	return &Checker{
		sched: sched,
		hosts: make(map[packet.NodeID]bool),
	}
}

// AttachConn subscribes one connection's endpoint streams: the flow's one
// bound subscriber joins the sender's sink (per-ACK probes, RTO taxonomy)
// and the receiver's (ACK emission). The flow's packet-level events come
// from the host taps — pair AttachConn with AttachTwoTier (or AttachHost on
// both endpoints' hosts), or the packet-driven oracles see no traffic and
// stay vacuous.
func (c *Checker) AttachConn(conn *tcp.Conn) {
	if c == nil {
		return
	}
	snd := conn.Sender
	flow := snd.Flow()
	fs := newFlowState(c, flow, snd)
	if !c.flows.Insert(flow, fs) {
		panic(fmt.Sprintf("oracle: flow %d attached twice", flow))
	}
	c.order = append(c.order, flow)

	observe := fs.observe
	snd.Sink.Subscribe(&fs.sndSub, observe)
	conn.Receiver.Sink.Subscribe(&fs.rcvSub, observe)
}

// AttachHost installs the packet taps on one host: its uplink's sink (data
// segments entering the network) and its delivery hook (data with final ECN
// marks at receivers, returning ACKs at senders). Safe to call for hosts
// already attached.
func (c *Checker) AttachHost(h *netsim.Host) {
	if c == nil || h == nil || c.hosts[h.ID()] {
		return
	}
	c.hosts[h.ID()] = true
	if up := h.Uplink(); up != nil {
		up.Sink.Subscribe(new(obs.Sub), c.onTransmit)
	}
	prevDel := h.OnDeliver
	h.OnDeliver = func(pkt *packet.Packet) {
		c.onDeliver(pkt)
		if prevDel != nil {
			prevDel(pkt)
		}
	}
}

// AttachTwoTier wires the whole two-tier testbed: packet taps on the
// aggregator and every worker, and the topology handle the conservation
// ledger audits at Finish, with the pool counts its pool ledger starts
// from.
func (c *Checker) AttachTwoTier(tt *netsim.TwoTier) {
	if c == nil || tt == nil {
		return
	}
	c.tt = tt
	c.AttachHost(tt.Aggregator)
	for _, w := range tt.Workers {
		c.AttachHost(w)
	}
}

// flow returns the state of an attached flow, nil for any other id.
func (c *Checker) flow(id packet.FlowID) *flowState {
	fs, _ := c.flows.Get(id)
	return fs
}

// onTransmit observes a packet starting serialization at a host uplink.
// Only data segments of attached flows feed the oracles; the receiver-side
// ACK stream is observed at emission (obs.AckSent) instead.
func (c *Checker) onTransmit(_ obs.Record, pkt *packet.Packet) {
	if !pkt.IsData() || pkt.Flags.Has(packet.FlagREQ) {
		return
	}
	if fs := c.flow(pkt.Flow); fs != nil {
		fs.onDataSent(pkt)
	}
}

// onDeliver observes a packet arriving at a host: data segments at the
// receiving endpoint (with their final CE marks), pure ACKs at the sender.
func (c *Checker) onDeliver(pkt *packet.Packet) {
	if pkt.Flags.Has(packet.FlagREQ) {
		return
	}
	fs := c.flow(pkt.Flow)
	if fs == nil {
		return
	}
	if pkt.IsData() {
		fs.onDataDeliver(pkt)
	} else if pkt.IsAck() {
		fs.onAckDeliver(pkt)
	}
}

// record claims the minimization ring's next slot for a new event of kind
// on flow, stamped with the current instant and otherwise zero, and
// returns it for the caller to fill in place: an event is written once,
// where it is kept, never built elsewhere and copied in.
func (c *Checker) record(kind Kind, flow packet.FlowID) *Event {
	ev := &c.ring[c.ringPos]
	c.ringPos = (c.ringPos + 1) % ringEvents
	if c.ringLen < ringEvents {
		c.ringLen++
	}
	check.AtMost("oracle.ring fill", int64(c.ringLen), ringEvents)
	*ev = Event{}
	ev.At, ev.Kind, ev.Flow = c.sched.Now(), kind, flow
	return ev
}

// window extracts the minimized trace for a violation: the most recent
// ring events touching the flow (every event when flow is 0), oldest
// first, capped at windowEvents.
func (c *Checker) window(flow packet.FlowID) []string {
	out := make([]string, 0, windowEvents)
	// Walk the ring newest-first, collect matches, then reverse.
	for i := 0; i < c.ringLen && len(out) < windowEvents; i++ {
		idx := (c.ringPos - 1 - i + ringEvents*2) % ringEvents
		ev := &c.ring[idx]
		if flow == 0 || ev.Flow == flow {
			out = append(out, ev.format())
		}
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// report files one violation with its minimized event window.
func (c *Checker) report(rule string, flow packet.FlowID, at sim.Time, msg string) {
	c.total++
	if len(c.violations) >= maxViolations {
		return
	}
	c.violations = append(c.violations, Violation{
		At: at, Rule: rule, Flow: flow, Msg: msg, Window: c.window(flow),
	})
}

// Violations returns the violations recorded so far (bounded; see Total).
func (c *Checker) Violations() []Violation {
	if c == nil {
		return nil
	}
	return c.violations
}

// Total returns the total violation count, including any beyond the
// retained list.
func (c *Checker) Total() int64 {
	if c == nil {
		return 0
	}
	return c.total
}

// Finish runs the end-of-run oracles and returns all violations. drained
// reports whether the run completed with the network empty (no packets in
// flight or queued); the conservation ledger only balances on a drained
// network, so it is skipped otherwise.
func (c *Checker) Finish(drained bool) []Violation {
	if c == nil {
		return nil
	}
	if drained && c.tt != nil {
		c.auditConservation(c.tt)
	}
	return c.violations
}

// enhancerOf unwraps a sender's congestion module to its DCTCP+ enhancer,
// if any.
func enhancerOf(cc tcp.CongestionControl) *core.Enhancer {
	if e, ok := cc.(*core.Enhancer); ok {
		return e
	}
	return nil
}

// alphaUpdater is the estimator-cadence observable: DCTCP and D2TCP both
// expose the number of completed once-per-window alpha folds.
type alphaUpdater interface {
	Updates() int64
}

// updaterOf unwraps a congestion module (through the DCTCP+ enhancer, if
// present) to its alpha-cadence counter, or nil.
func updaterOf(cc tcp.CongestionControl) alphaUpdater {
	if e := enhancerOf(cc); e != nil {
		cc = e.Inner()
	}
	if u, ok := cc.(alphaUpdater); ok {
		return u
	}
	return nil
}
