package tcp

import (
	"testing"

	"dctcpplus/internal/netsim"
	"dctcpplus/internal/obs"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
)

// filterNode sits between the data sender's link and the receiving host,
// optionally mangling (e.g. CE-marking) or dropping packets. ACKs flow back
// over a clean direct link.
type filterNode struct {
	id     packet.NodeID
	dst    netsim.Node
	mangle func(*packet.Packet)
	drop   func(*packet.Packet) bool
}

func (f *filterNode) ID() packet.NodeID { return f.id }
func (f *filterNode) Deliver(p *packet.Packet) {
	if f.mangle != nil {
		f.mangle(p)
	}
	if f.drop != nil && f.drop(p) {
		return
	}
	f.dst.Deliver(p)
}

// wire is a two-host test fixture: host a sends data to host b through a
// filter; ACKs return directly. 1Gbps links, 50us one-way delay.
type wire struct {
	sched  *sim.Scheduler
	a, b   *netsim.Host
	filter *filterNode
}

func newWire(t *testing.T) *wire {
	if t != nil {
		t.Helper()
	}
	s := sim.NewScheduler()
	a := netsim.NewHost(s, 1, "a")
	b := netsim.NewHost(s, 2, "b")
	f := &filterNode{id: 100, dst: b}
	const rate = 1_000_000_000
	const delay = 50 * sim.Microsecond
	a.SetUplink(netsim.NewPort(s, netsim.NewLink(s, f, rate, delay),
		netsim.PortConfig{BufferBytes: 4 << 20}))
	b.SetUplink(netsim.NewPort(s, netsim.NewLink(s, a, rate, delay),
		netsim.PortConfig{BufferBytes: 4 << 20}))
	return &wire{sched: s, a: a, b: b, filter: f}
}

// conn builds a persistent connection a->b with the given config and CC.
func (w *wire) conn(cfg Config, cc CongestionControl) *Conn {
	return NewConn(cfg, cc, w.a, w.b, 7)
}

// dropSeqOnce returns a drop function that discards the first data packet
// whose Seq equals each of the given sequence numbers (subsequent
// retransmissions pass).
func dropSeqOnce(seqs ...int64) func(*packet.Packet) bool {
	pending := make(map[int64]bool, len(seqs))
	for _, q := range seqs {
		pending[q] = true
	}
	return func(p *packet.Packet) bool {
		if p.IsData() && pending[p.Seq] {
			delete(pending, p.Seq)
			return true
		}
		return false
	}
}

// onAck subscribes fn to every ACK the sender finishes processing.
func onAck(s *Sender, fn func()) {
	s.Sink.Subscribe(new(obs.Sub), func(r obs.Record, _ *packet.Packet) {
		if r.Kind == obs.AckProcessed {
			fn()
		}
	})
}

// onTimeout subscribes fn to every RTO the sender reports.
func onTimeout(s *Sender, fn func(TimeoutKind)) {
	s.Sink.Subscribe(new(obs.Sub), func(r obs.Record, _ *packet.Packet) {
		if r.Kind == obs.Timeout {
			fn(TimeoutKind(r.Timeout))
		}
	})
}
