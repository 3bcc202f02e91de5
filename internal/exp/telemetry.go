package exp

import (
	"strconv"

	"dctcpplus/internal/fault"
	"dctcpplus/internal/netsim"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/tcp"
	"dctcpplus/internal/telemetry"
)

// This file wires a telemetry.Registry through every hot layer of an
// experiment run: switch ports, senders, congestion-control modules and the
// workload. All attachments share the {proto, flows} base label set, so one
// registry accumulates an aggregated view per experiment point; a sweep
// reusing the registry keeps the points apart through the flows label.

// pointLabels returns the base label set identifying one experiment point.
func pointLabels(proto Protocol, flows int) []telemetry.Label {
	return []telemetry.Label{
		telemetry.L("proto", proto.String()),
		telemetry.L("flows", strconv.Itoa(flows)),
	}
}

// withLabel copies base and appends one extra pair (Registry lookups sort
// labels, so order is cosmetic).
func withLabel(base []telemetry.Label, key, value string) []telemetry.Label {
	return append(append([]telemetry.Label(nil), base...), telemetry.L(key, value))
}

// attachRunTelemetry attaches every switch port's queue-depth histogram and
// every connection's sender and congestion-control module. It returns the
// base label set for further attachments (workloads). A nil registry
// attaches nothing — the layers' instruments stay nil no-ops — and needs no
// labels.
func attachRunTelemetry(reg *telemetry.Registry, tt *netsim.TwoTier, conns []*tcp.Conn, proto Protocol, flows int) []telemetry.Label {
	if reg == nil {
		return nil
	}
	base := pointLabels(proto, flows)
	eachSwitchPort(tt, base, func(p *netsim.Port, labels []telemetry.Label) {
		p.AttachTelemetry(reg, labels...)
	})
	attachConnTelemetry(reg, conns, base)
	return base
}

// eachSwitchPort calls fn with every switch port of the tree and its label
// set: base plus the port's role, bottleneck or other. The label slice is
// rewritten between calls (registry lookups copy what they keep).
func eachSwitchPort(tt *netsim.TwoTier, base []telemetry.Label, fn func(*netsim.Port, []telemetry.Label)) {
	labels := append(append([]telemetry.Label(nil), base...), telemetry.Label{Key: "port"})
	for _, sw := range append([]*netsim.Switch{tt.Root}, tt.Leaves...) {
		for _, p := range sw.Ports() {
			labels[len(labels)-1].Value = "other"
			if p == tt.BottleneckPort {
				labels[len(labels)-1].Value = "bottleneck"
			}
			fn(p, labels)
		}
	}
}

// attachConnTelemetry attaches the senders (and their congestion-control
// modules, when they support telemetry) of the given connections.
func attachConnTelemetry(reg *telemetry.Registry, conns []*tcp.Conn, base []telemetry.Label) {
	if reg == nil {
		return
	}
	for _, c := range conns {
		c.Sender.AttachTelemetry(reg, base...)
		if a, ok := c.Sender.CC().(telemetry.Attacher); ok {
			a.AttachTelemetry(reg, base...)
		}
	}
}

// finishRunTelemetry closes a run: it advances the registry's virtual-time
// high-water mark to the scheduler's final instant, adds every switch
// port's and every sender's run totals (the layers' own Stats) to their
// counters — the long flows' under role=background — and flushes any
// congestion-control state that accumulates over open intervals (the
// DCTCP+ state-occupancy accounting). Each counter is registered even at
// zero, so a point's dump names the same instruments whatever happened.
func finishRunTelemetry(reg *telemetry.Registry, now sim.Time, tt *netsim.TwoTier, base []telemetry.Label, conns, longConns []*tcp.Conn) {
	if reg == nil {
		return
	}
	reg.AdvanceSimTime(now)
	eachSwitchPort(tt, base, func(p *netsim.Port, labels []telemetry.Label) {
		st := p.Stats()
		reg.Counter("netsim_port_enqueued_pkts_total", labels...).Add(st.EnqueuedPkts)
		reg.Counter("netsim_port_dropped_pkts_total", labels...).Add(st.DroppedPkts)
		reg.Counter("netsim_port_ce_marked_pkts_total", labels...).Add(st.MarkedPkts)
	})
	countSenders(reg, now, conns, base)
	countSenders(reg, now, longConns, withLabel(base, "role", "background"))
}

// countSenders adds each connection's retransmission and RTO-taxonomy
// totals (tcp.SenderStats) to the transport counters under labels, and
// flushes its congestion-control module.
func countSenders(reg *telemetry.Registry, now sim.Time, conns []*tcp.Conn, labels []telemetry.Label) {
	for _, c := range conns {
		if f, ok := c.Sender.CC().(telemetry.Flusher); ok {
			f.FlushTelemetry(now)
		}
		st := c.Sender.Stats()
		reg.Counter("tcp_retransmit_pkts_total", labels...).Add(st.RetransPkts)
		reg.Counter("tcp_rto_total", labels...).Add(st.Timeouts)
		reg.Counter("tcp_rto_floss_total", labels...).Add(st.FLossTimeouts)
		reg.Counter("tcp_rto_lack_total", labels...).Add(st.LAckTimeouts)
	}
}

// countFaults adds a run's fault totals (fault.Injector.Finish) to the
// fault counters: events fired, blackout and stall nanoseconds, and
// fault-induced drops.
func countFaults(reg *telemetry.Registry, st fault.Stats, labels []telemetry.Label) {
	if reg == nil {
		return
	}
	reg.Counter("fault_events_fired_total", labels...).Add(st.EventsFired)
	reg.Counter("fault_blackout_ns_total", labels...).Add(int64(st.BlackoutTime))
	reg.Counter("fault_stall_ns_total", labels...).Add(int64(st.StallTime))
	reg.Counter("fault_induced_drop_pkts_total", labels...).Add(st.InducedDropPkts)
	reg.Counter("fault_induced_drop_bytes_total", labels...).Add(st.InducedDropBytes)
}
