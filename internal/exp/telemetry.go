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

// attachRunTelemetry attaches every port of the topology (the bottleneck
// port separated out by the port label) and every connection's sender and
// congestion-control module. It returns the base label set for further
// attachments (workloads). A nil registry attaches nothing — the layers'
// instruments stay nil no-ops — and needs no labels.
func attachRunTelemetry(reg *telemetry.Registry, tt *netsim.TwoTier, conns []*tcp.Conn, proto Protocol, flows int) []telemetry.Label {
	if reg == nil {
		return nil
	}
	base := pointLabels(proto, flows)
	// One port label set on the stack, its role rewritten per port.
	var buf [8]telemetry.Label
	portLabels := append(append(buf[:0], base...), telemetry.Label{Key: "port"})
	switches := append([]*netsim.Switch{tt.Root}, tt.Leaves...)
	for _, sw := range switches {
		for _, p := range sw.Ports() {
			role := "other"
			if p == tt.BottleneckPort {
				role = "bottleneck"
			}
			portLabels[len(portLabels)-1].Value = role
			p.AttachTelemetry(reg, portLabels...)
		}
	}
	attachConnTelemetry(reg, conns, base)
	return base
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
// high-water mark to the scheduler's final instant and flushes any
// congestion-control state that accumulates over open intervals (the DCTCP+
// state-occupancy accounting).
func finishRunTelemetry(reg *telemetry.Registry, now sim.Time, conns []*tcp.Conn) {
	if reg == nil {
		return
	}
	reg.AdvanceSimTime(now)
	for _, c := range conns {
		if f, ok := c.Sender.CC().(telemetry.Flusher); ok {
			f.FlushTelemetry(now)
		}
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
