// Package oracle is the trace-oracle conformance layer: it subscribes to
// the simulator's observation sinks and host delivery taps and replays
// every packet, ACK and timer event through a set of pluggable
// state-machine oracles — cumulative-ACK monotonicity, retransmission
// legality (RFC 5681 fast retransmit / RFC 6582 NewReno deflation
// arithmetic), RFC 6298 RTO backoff/reset discipline (Karn), RFC 3168 /
// DCTCP precise ECE echo, DCTCP's once-per-window alpha cadence, the DCTCP+
// Figure 4 state machine with Algorithm 1's slow_time bounds, and
// whole-network packet/byte conservation. (Queue occupancy bounds are not
// a rule: the port asserts them itself before any observer could see them.)
//
// The checker is a pure observer, and every method on a nil *Checker is a
// no-op. Rules are envelopes: they admit every behavior the engine can
// legally produce (no false positives under fault-induced reordering) and
// flag what the RFCs and the paper forbid. Each violation carries a
// minimized event-window trace — the last few events of the offending flow
// — in the spirit of Misund's "Disentangling Flaws in Linux DCTCP", where
// protocol bugs "kept surfacing with no apparent pattern" until traces
// were checked systematically.
package oracle

import (
	"fmt"

	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
)

// Kind classifies one observed event.
type Kind uint8

const (
	// EvDataSent: a data segment begins serialization at the sending
	// host's uplink port.
	EvDataSent Kind = iota
	// EvAckSent: the receiver emits a cumulative ACK (before any queueing).
	EvAckSent
	// EvDataDeliver: a data segment reaches the receiving host, carrying
	// its final (post-marking) ECN codepoint.
	EvDataDeliver
	// EvAckDeliver: an ACK reaches the sending host.
	EvAckDeliver
	// EvAckProbe: the sender finished processing one ACK; the event
	// carries the post-update window/state snapshot.
	EvAckProbe
	// EvRTO: the sender's retransmission timer expired.
	EvRTO
)

func (k Kind) String() string {
	switch k {
	case EvDataSent:
		return "data-sent"
	case EvAckSent:
		return "ack-sent"
	case EvDataDeliver:
		return "data-deliver"
	case EvAckDeliver:
		return "ack-deliver"
	case EvAckProbe:
		return "ack-probe"
	case EvRTO:
		return "rto"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one replayed observation. Only the fields relevant to its Kind
// are populated; the struct is kept flat so the checker's ring buffer holds
// plain values, and its small fields are narrow and packed together so a
// ring slot is 96 bytes. The checker fills each event in place, in its ring
// slot.
type Event struct {
	At   sim.Time
	Flow packet.FlowID
	Kind Kind

	// Packet-carried fields (sent/deliver/ack events).
	CE         bool // data: final ECN == CE
	Ece        bool // ACKs: ECN-Echo flag; probes: the processed ACK's ECE
	Cwr        bool // data: FlagCWR
	Retransmit bool

	// Sender state (probe/RTO events): the RTO backoff exponent (the engine
	// caps it at 16) and the tcp.SenderState.
	Backoff uint8
	State   uint8

	// PlusState is the core.State (probe events); -1 when the flow has no
	// enhancer.
	PlusState int8

	Payload int32 // packet-carried
	Seq     int64
	End     int64
	AckNo   int64

	// Sender snapshot (probe/RTO events).
	Cwnd     float64
	Ssthresh float64
	SndUna   int64
	SndNxt   int64

	// Congestion-module observables (probe events; negative = absent).
	AlphaUpdates int64
	SlowTime     sim.Duration
}

// format renders one event for violation windows.
func (e *Event) format() string {
	switch e.Kind {
	case EvDataSent:
		rtx := ""
		if e.Retransmit {
			rtx = " rtx"
		}
		return fmt.Sprintf("%v flow=%d data-sent [%d,%d)%s", e.At, e.Flow, e.Seq, e.End, rtx)
	case EvAckSent:
		return fmt.Sprintf("%v flow=%d ack-sent ack=%d ece=%v", e.At, e.Flow, e.AckNo, e.Ece)
	case EvDataDeliver:
		return fmt.Sprintf("%v flow=%d data-deliver [%d,%d) ce=%v cwr=%v", e.At, e.Flow, e.Seq, e.End, e.CE, e.Cwr)
	case EvAckDeliver:
		return fmt.Sprintf("%v flow=%d ack-deliver ack=%d ece=%v", e.At, e.Flow, e.AckNo, e.Ece)
	case EvAckProbe:
		return fmt.Sprintf("%v flow=%d ack-probe cwnd=%.2f ssthresh=%.2f una=%d nxt=%d state=%d backoff=%d ece=%v alphaUpd=%d plus=%d slow=%v",
			e.At, e.Flow, e.Cwnd, e.Ssthresh, e.SndUna, e.SndNxt, e.State, e.Backoff, e.Ece, e.AlphaUpdates, e.PlusState, e.SlowTime)
	case EvRTO:
		return fmt.Sprintf("%v flow=%d rto una=%d backoff=%d", e.At, e.Flow, e.SndUna, e.Backoff)
	}
	return fmt.Sprintf("%v flow=%d %v", e.At, e.Flow, e.Kind)
}

// Violation is one oracle failure: which rule, where, and a minimized
// event-window trace (the most recent events of the offending flow, oldest
// first) for diagnosis.
type Violation struct {
	At   sim.Time
	Rule string
	Flow packet.FlowID // 0 for network-wide rules (conservation)
	Msg  string
	// Window is the minimized trace: the last <= windowEvents ring events
	// touching the flow (all flows for network-wide rules).
	Window []string
}

func (v Violation) String() string {
	return fmt.Sprintf("%v [%s] flow=%d: %s", v.At, v.Rule, v.Flow, v.Msg)
}
