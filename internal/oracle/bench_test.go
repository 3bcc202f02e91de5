package oracle

import (
	"testing"
	"unsafe"

	"dctcpplus/internal/core"
	"dctcpplus/internal/dctcp"
	"dctcpplus/internal/netsim"
	"dctcpplus/internal/obs"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/tcp"
)

// benchFlows is the flow count of the observed incast (incast_observed's
// N=200): the checker's per-flow lookups run over a table this size.
const benchFlows = 200

// packetLoop is a checker with benchFlows idle DCTCP+ connections (flow ids
// 1..benchFlows, as the incast numbers them) attached, and a step that
// feeds it the next observed event of a legal packet exchange, round-robin
// over the flows: data sent at the uplink tap, delivered at the receiver's
// host, its cumulative ACK emitted, that ACK delivered back.
type packetLoop struct {
	ck    *Checker
	flows []*flowState
	data  []*packet.Packet
	ack   []*packet.Packet
	i     int
}

func newPacketLoop(tb testing.TB) *packetLoop {
	tb.Helper()
	sched := sim.NewScheduler()
	star := netsim.NewStar(sched, 2, netsim.DefaultTopologyConfig())
	l := &packetLoop{ck: NewChecker(sched)}
	for f := packet.FlowID(1); f <= benchFlows; f++ {
		conn := tcp.NewConn(dctcp.Config(), core.New(dctcp.DefaultGain, core.DefaultConfig()), star.Hosts[0], star.Hosts[1], f)
		l.ck.AttachConn(conn)
		l.flows = append(l.flows, l.ck.flow(f))
		l.data = append(l.data, &packet.Packet{Flow: f, Payload: packet.MSS, ECN: packet.ECT})
		l.ack = append(l.ack, &packet.Packet{Flow: f, Flags: packet.FlagACK})
	}
	return l
}

// step observes one event; four steps make one segment's round trip.
func (l *packetLoop) step() {
	k := l.i / 4 % benchFlows
	data, ack := l.data[k], l.ack[k]
	switch l.i % 4 {
	case 0:
		l.ck.onTransmit(obs.Record{}, data)
	case 1:
		l.ck.onDeliver(data)
	case 2:
		ack.AckNo = data.End()
		l.flows[k].observe(obs.Record{Kind: obs.AckSent}, ack)
	case 3:
		l.ck.onDeliver(ack)
		data.Seq += packet.MSS
	}
	l.i++
}

// probeLoop is a checker with benchFlows idle DCTCP+ connections attached
// and a step that feeds it one processed-ACK probe, round-robin over the
// flows: the per-ACK sender oracles (backoff, NewReno, alpha cadence, the
// DCTCP+ machine) against the previous probe.
type probeLoop struct {
	flows []*flowState
	i     int
}

func newProbeLoop(tb testing.TB) *probeLoop {
	tb.Helper()
	return &probeLoop{flows: newPacketLoop(tb).flows}
}

func (l *probeLoop) step() {
	l.flows[l.i%benchFlows].observe(obs.Record{Kind: obs.AckProcessed}, nil)
	l.i++
}

// BenchmarkCheckerPacket reports the checker's cost per observed packet
// event (ns/op: one op is one event at a tap or the receiver's sink).
func BenchmarkCheckerPacket(b *testing.B) {
	l := newPacketLoop(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.step()
	}
	b.StopTimer()
	if n := l.ck.Total(); n != 0 {
		b.Fatalf("a legal exchange raised %d violations: %v", n, l.ck.Violations())
	}
}

// BenchmarkCheckerProbe reports the checker's cost per observed
// processed-ACK probe (ns/op: one op is one probe).
func BenchmarkCheckerProbe(b *testing.B) {
	l := newProbeLoop(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.step()
	}
	b.StopTimer()
	if n := l.flows[0].c.Total(); n != 0 {
		b.Fatalf("idle probes raised %d violations", n)
	}
}

// TestCheckerAllocFree: observing a packet event or a probe allocates
// nothing once a flow's models are warm — the oracle rides every packet
// and ACK of a checked run.
func TestCheckerAllocFree(t *testing.T) {
	pl, ql := newPacketLoop(t), newProbeLoop(t)
	for i := 0; i < 8*benchFlows; i++ { // warm every flow's models
		pl.step()
		ql.step()
	}
	if a := testing.AllocsPerRun(4*benchFlows, pl.step); a != 0 {
		t.Errorf("a packet event allocates %.2f times, want 0", a)
	}
	if a := testing.AllocsPerRun(4*benchFlows, ql.step); a != 0 {
		t.Errorf("a probe allocates %.2f times, want 0", a)
	}
	if n := pl.ck.Total() + ql.flows[0].c.Total(); n != 0 {
		t.Fatalf("legal events raised %d violations: %v", n, pl.ck.Violations())
	}
}

// TestEventSlotSize pins the ring slot at the 96 bytes Event's comment
// promises: its narrow fields stay packed together.
func TestEventSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 96 {
		t.Errorf("Event is %d bytes, want 96", got)
	}
}
