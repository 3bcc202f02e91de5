package tcp

import (
	"dctcpplus/internal/check"
	"dctcpplus/internal/netsim"
	"dctcpplus/internal/obs"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
)

// ReceiverStats counts events at the receiving endpoint.
type ReceiverStats struct {
	SegsIn        int64
	BytesIn       int64 // payload bytes arriving (including duplicates)
	DeliveredByte int64 // in-order bytes handed to the application
	DupSegs       int64 // fully duplicate segments
	OutOfOrder    int64 // segments buffered ahead of a hole
	AcksOut       int64
	DelayedAcks   int64 // ACKs sent by the delayed-ACK counter/timer path
	ImmediateAcks int64 // ACKs forced by dup/out-of-order/CE-transition
	CEMarksSeen   int64 // data segments arriving with CE set
}

// interval is a half-open byte range [lo, hi) in the reassembly buffer. ce
// records the ECN state the bytes *first* arrived with: under DCTCP precise
// echo the sender's marked-byte accounting is driven by which copy of the
// data the receiver kept, so a retransmitted overlap never rewrites the
// state of bytes already buffered.
type interval struct {
	lo, hi int64
	ce     bool
}

// ackRun is one CE-uniform stretch of newly in-order bytes: when a hole
// fill absorbs buffered intervals with mixed CE states, each run gets its
// own cumulative ACK so the precise-echo accounting stays exact.
type ackRun struct {
	upTo int64
	ce   bool
}

// Receiver is the receiving half of a connection: it reassembles the byte
// stream, generates (delayed) cumulative ACKs, and implements the ECN echo
// semantics — either the RFC 3168 latch or DCTCP's precise two-state
// delayed-ACK machine, which is what lets the DCTCP sender estimate the
// fraction of marked packets.
//
// Like the Sender, a Receiver is (re)initialised only by open.
type Receiver struct {
	cfg   Config
	host  *netsim.Host
	sched *sim.Scheduler
	flow  packet.FlowID
	peer  packet.NodeID
	// live is set by open and cleared by Close; Deliver and open assert it.
	live bool

	rcvNxt int64
	ooo    []interval // sorted, disjoint, all above rcvNxt
	// ackRuns is the reused scratch for advanceTo's CE-uniform run
	// decomposition (capacity tracks the high-water run count).
	ackRuns []ackRun

	// pendingSegs counts in-order segments not yet acknowledged; reaching
	// DelAckCount triggers an ACK that resets it.
	//inv: 0 <= pendingSegs && pendingSegs <= cfg.DelAckCount
	pendingSegs int
	delackTimer sim.Timer

	// ECN echo state.
	eceLatch bool // RFC 3168: set by CE, cleared by CWR
	ceState  bool // DCTCP: CE state of the most recent data segment

	stats ReceiverStats

	// OnData observes each in-order delivery (n bytes).
	OnData func(n int64)
	// Sink receives an obs.AckSent record, with the ACK, at the exact
	// emission instant, before any host-queue or serialization delay.
	Sink obs.Sink
}

// NewReceiver creates a receiver for flow on host, acknowledging toward
// peer, and registers it for the flow's data segments.
func NewReceiver(cfg Config, host *netsim.Host, peer packet.NodeID, flow packet.FlowID) *Receiver {
	r := &Receiver{}
	r.open(cfg, host, peer, flow)
	return r
}

// open is the receiver's one initialiser; see Sender.open, which has also
// checked that a reopened connection stays on its scheduler.
func (r *Receiver) open(cfg Config, host *netsim.Host, peer packet.NodeID, flow packet.FlowID) {
	cfg.validate()
	sched := host.Scheduler()
	switch {
	case r.sched == nil:
		r.delackTimer.Init(sched, r.onDelAck)
	case r.live:
		check.Failf("tcp.receiver open: flow %d is still open", r.flow)
	}
	*r = Receiver{
		cfg:   cfg,
		host:  host,
		sched: sched,
		flow:  flow,
		peer:  peer,
		live:  true,

		// The keep-list: the delayed-ACK timer (disarmed by Close) stays
		// bound, and the two scratch slices keep their high-water capacity.
		delackTimer: r.delackTimer,
		ooo:         r.ooo[:0],
		ackRuns:     r.ackRuns[:0],
	}
	host.Register(flow, r)
}

// onDelAck is the delayed-ACK timer's expiry: flush a pending obligation.
func (r *Receiver) onDelAck() {
	if r.pendingSegs > 0 {
		r.stats.DelayedAcks++
		r.sendAck()
	}
}

// RcvNxt returns the next expected in-order byte.
func (r *Receiver) RcvNxt() int64 { return r.rcvNxt }

// Peer returns the node id of the sending endpoint.
func (r *Receiver) Peer() packet.NodeID { return r.peer }

// Stats returns a snapshot of the receiver counters.
func (r *Receiver) Stats() ReceiverStats { return r.stats }

// Close disarms the delayed-ACK timer and unregisters the receiver from its
// host.
func (r *Receiver) Close() {
	r.delackTimer.Stop()
	r.host.Unregister(r.flow)
	r.live = false
}

// Deliver processes one arriving data segment.
func (r *Receiver) Deliver(pkt *packet.Packet) {
	if !r.live {
		check.Failf("tcp.receiver Deliver: flow %d is closed", r.flow)
	}
	if !pkt.IsData() {
		return
	}
	r.stats.SegsIn++
	r.stats.BytesIn += int64(pkt.Payload)

	ce := pkt.ECN == packet.CE
	if ce {
		r.stats.CEMarksSeen++
	}
	switch r.cfg.ECN {
	case ECNOff:
		// No ECN negotiation: marks (which should not occur) are ignored.
	case ECNClassic:
		// RFC 3168: CWR from the sender clears the latch; a CE mark sets
		// it. Process CWR first so a marked CWR segment re-latches.
		if pkt.Flags.Has(packet.FlagCWR) {
			r.eceLatch = false
		}
		if ce {
			r.eceLatch = true
		}
	case ECNPrecise:
		// DCTCP's two-state ACK machine: when the CE state changes, flush
		// an immediate ACK that still reflects the old state for the
		// segments it covers, then adopt the new state. This preserves the
		// exact marked-byte accounting at the sender.
		if ce != r.ceState {
			if r.pendingSegs > 0 {
				r.stats.ImmediateAcks++
				r.sendAck()
			}
			r.ceState = ce
		}
	default:
		panic("tcp: unknown ECN mode")
	}

	seq, end := pkt.Seq, pkt.End()
	switch {
	case end <= r.rcvNxt:
		// Entirely duplicate data: re-ACK immediately so the sender sees
		// the duplicate and can exit its hole-filling path.
		r.stats.DupSegs++
		r.stats.ImmediateAcks++
		r.sendAck()
	case seq > r.rcvNxt:
		// Out of order: buffer and send an immediate duplicate ACK — this
		// is the dupACK stream that drives fast retransmit.
		r.stats.OutOfOrder++
		r.insertOOO(seq, end, ce)
		r.stats.ImmediateAcks++
		r.sendAck()
	default:
		// In-order (possibly overlapping the front): advance, merge any
		// buffered ranges this unblocks, deliver to the application.
		hadHole := len(r.ooo) > 0
		if end > r.rcvNxt {
			advanced := r.advanceTo(end, ce)
			r.stats.DeliveredByte += advanced
			if r.OnData != nil {
				r.OnData(advanced)
			}
		}
		if hadHole {
			// Filled (part of) a hole: ACK immediately (RFC 5681). Under
			// precise echo the newly in-order range may interleave CE and
			// non-CE bytes (the filling retransmission is typically unmarked
			// while the buffered segments behind the hole were marked): a
			// single cumulative ACK would attribute the whole range to one
			// ECE bit and corrupt the sender's marked-byte fraction. Emit
			// one cumulative ACK per CE-uniform run instead — the delayed-ACK
			// aggregation rule of the DCTCP precise-echo state machine, one
			// ACK per CE-state flip.
			if r.cfg.ECN == ECNPrecise && len(r.ackRuns) > 1 {
				for _, run := range r.ackRuns {
					r.ceState = run.ce
					r.stats.ImmediateAcks++
					r.sendAckAt(run.upTo)
				}
				return
			}
			r.stats.ImmediateAcks++
			r.sendAck()
			return
		}
		r.pendingSegs++
		// Asserted before the flush below zeroes the count, so a corrupted
		// count is seen instead of being reset.
		check.AtMost("tcp.receiver pending segments", int64(r.pendingSegs), int64(r.cfg.DelAckCount))
		if r.pendingSegs >= r.cfg.DelAckCount {
			r.stats.DelayedAcks++
			r.sendAck()
		} else if !r.delackTimer.Armed() {
			r.delackTimer.Reset(DelAckTimeout)
		}
	}
}

// advanceTo moves rcvNxt to at least end, absorbing any buffered intervals
// that become contiguous, and returns the number of newly delivered bytes.
// ce is the ECN state of the segment driving the advance; the bytes it
// contributes directly (the gaps between absorbed intervals) carry it, while
// absorbed intervals keep the state their bytes first arrived with. The
// CE-uniform run decomposition of the advance is left in r.ackRuns for the
// caller (adjacent same-state runs are merged, so len(ackRuns) > 1 iff the
// advance genuinely mixes CE states).
func (r *Receiver) advanceTo(end int64, ce bool) int64 {
	old := r.rcvNxt
	r.ackRuns = r.ackRuns[:0]
	pos := old
	drop := 0
	for {
		if drop < len(r.ooo) && r.ooo[drop].lo <= pos {
			// Contiguous buffered interval: absorb it with its own CE state.
			if iv := r.ooo[drop]; iv.hi > pos {
				r.pushRun(iv.hi, iv.ce)
				pos = iv.hi
			}
			drop++
			continue
		}
		if pos < end {
			// Bytes supplied by the arriving segment itself, up to the next
			// buffered interval (or end).
			nxt := end
			if drop < len(r.ooo) && r.ooo[drop].lo < nxt {
				nxt = r.ooo[drop].lo
			}
			r.pushRun(nxt, ce)
			pos = nxt
			continue
		}
		break
	}
	r.rcvNxt = pos
	if drop > 0 {
		// Copy down instead of re-slicing the front off: the backing array
		// keeps its high-water capacity, so reassembly churn never allocates
		// in steady state.
		n := copy(r.ooo, r.ooo[drop:])
		r.ooo = r.ooo[:n]
	}
	return r.rcvNxt - old
}

// pushRun extends the run decomposition to upTo, merging into the previous
// run when the CE state is unchanged.
func (r *Receiver) pushRun(upTo int64, ce bool) {
	if n := len(r.ackRuns); n > 0 && r.ackRuns[n-1].ce == ce {
		r.ackRuns[n-1].upTo = upTo
		return
	}
	//lint:allow hotalloc run-scratch growth is amortized: capacity tracks the high-water run count and is then reused
	r.ackRuns = append(r.ackRuns, ackRun{upTo, ce})
}

// insertOOO records [lo, hi) in the sorted disjoint interval set, in place.
// First arrival wins: sub-ranges already buffered keep the CE state of the
// copy the receiver kept, and only genuinely new bytes take the arriving
// segment's state. Touching neighbors coalesce only when their CE states
// match, so the set stays sorted, disjoint, and CE-uniform per interval.
func (r *Receiver) insertOOO(lo, hi int64, ce bool) {
	// Walk pos across [lo, hi), filling each uncovered gap with a new
	// ce-state interval slotted in sorted position.
	pos := lo
	i := 0
	for pos < hi {
		if i < len(r.ooo) && r.ooo[i].lo <= pos {
			// Existing interval covers (a prefix of) the remainder.
			if r.ooo[i].hi > pos {
				pos = r.ooo[i].hi
			}
			i++
			continue
		}
		gapHi := hi
		if i < len(r.ooo) && r.ooo[i].lo < gapHi {
			gapHi = r.ooo[i].lo
		}
		// Open a slot at i for the uncovered sub-range.
		//lint:allow hotalloc reassembly-buffer growth is amortized: capacity tracks the high-water hole count and is then reused
		r.ooo = append(r.ooo, interval{})
		copy(r.ooo[i+1:], r.ooo[i:])
		r.ooo[i] = interval{pos, gapHi, ce}
		i++
		pos = gapHi
	}
	// One compaction pass: merge touching neighbors with equal CE state.
	w := 0
	for k := 1; k < len(r.ooo); k++ {
		if r.ooo[k].lo <= r.ooo[w].hi && r.ooo[k].ce == r.ooo[w].ce {
			if r.ooo[k].hi > r.ooo[w].hi {
				r.ooo[w].hi = r.ooo[k].hi
			}
			continue
		}
		w++
		r.ooo[w] = r.ooo[k]
	}
	r.ooo = r.ooo[:w+1]
}

// sendAck emits a cumulative ACK for rcvNxt reflecting the current ECN echo
// state and clears any pending delayed-ACK obligation.
func (r *Receiver) sendAck() { r.sendAckAt(r.rcvNxt) }

// sendAckAt emits a cumulative ACK acknowledging through ackNo (normally
// rcvNxt; the run-splitting hole-fill path passes intermediate run
// boundaries) reflecting the current ECN echo state.
func (r *Receiver) sendAckAt(ackNo int64) {
	flags := packet.FlagACK
	switch r.cfg.ECN {
	case ECNOff:
		// Plain cumulative ACK; there is no echo state to reflect.
	case ECNClassic:
		if r.eceLatch {
			flags |= packet.FlagECE
		}
	case ECNPrecise:
		if r.ceState {
			flags |= packet.FlagECE
		}
	default:
		panic("tcp: unknown ECN mode")
	}
	r.pendingSegs = 0
	r.delackTimer.Stop()
	r.stats.AcksOut++
	// Minted from the host's pool (a plain allocation when pooling is off);
	// AllocPacket returns a zeroed packet, so only the live fields are set.
	pkt := r.host.AllocPacket()
	pkt.Dst = r.peer
	pkt.Flow = r.flow
	pkt.AckNo = ackNo
	pkt.Flags = flags
	pkt.SendTime = r.sched.Now()
	if r.Sink.Active() {
		r.Sink.Emit(obs.Record{At: pkt.SendTime, Flow: r.flow, Kind: obs.AckSent, ECE: flags.Has(packet.FlagECE)}, pkt)
	}
	r.host.Send(pkt)
}
