package core

import (
	"reflect"
	"testing"

	"dctcpplus/internal/d2tcp"
	"dctcpplus/internal/dctcp"
	"dctcpplus/internal/netsim"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/resetcheck"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/tcp"
	"dctcpplus/internal/telemetry"
)

// ccKind is one congestion-control module under the recycle contract:
// recycle is the factory step (old is the retiring connection's module, nil
// for a new one) and keeps the module's keep-list — the fields a reset
// carries over, compared separately — empty for modules with none.
type ccKind struct {
	name    string
	cfg     tcp.Config
	recycle func(old tcp.CongestionControl) tcp.CongestionControl
	keeps   []string
	inner   *ccKind // the wrapped module's kind, for an Enhancer
}

func ccKinds() []ccKind {
	reno := ccKind{name: "reno", cfg: tcp.DefaultConfig(),
		recycle: func(tcp.CongestionControl) tcp.CongestionControl { return tcp.NewReno{} }}
	reno.cfg.ECN = tcp.ECNClassic
	dct := ccKind{name: "dctcp", cfg: dctcp.Config(),
		recycle: func(old tcp.CongestionControl) tcp.CongestionControl { return dctcp.Recycle(old, dctcp.DefaultGain) }}
	d2 := ccKind{name: "d2tcp", cfg: d2tcp.Config(), keeps: []string{"inner"}, inner: &dct,
		recycle: func(old tcp.CongestionControl) tcp.CongestionControl { return d2tcp.Recycle(old, dctcp.DefaultGain, 2) }}
	kinds := []ccKind{reno, dct, d2}
	for _, in := range []ccKind{reno, dct, d2} {
		in := in
		plus := ccKind{name: in.name + "+", cfg: in.cfg, keeps: []string{"inner"}, inner: &in,
			recycle: func(old tcp.CongestionControl) tcp.CongestionControl {
				return Recycle(old, in.recycle(Unwrap(old)), DefaultConfig())
			}}
		plus.cfg.MinCwnd = 1
		kinds = append(kinds, plus)
	}
	return kinds
}

// diffCC compares a recycled module with a fresh twin under its kind's
// keep-list, then the kept inner module under its own.
func diffCC(t *testing.T, k ccKind, got, want tcp.CongestionControl) {
	t.Helper()
	if _, stateless := got.(tcp.NewReno); stateless {
		return
	}
	resetcheck.Diff(t, got, want, k.keeps...)
	if k.inner != nil {
		inner := func(cc tcp.CongestionControl) tcp.CongestionControl {
			if e, ok := cc.(*Enhancer); ok {
				return e.Inner()
			}
			return resetcheck.Field(reflect.ValueOf(cc).Elem(), 0).(*dctcp.DCTCP) // D2TCP.inner
		}
		diffCC(t, *k.inner, inner(got), inner(want))
	}
}

// incastConns opens n connections from the workers to the aggregator of a
// fresh two-tier tree, each with a module recycle builds from nil.
func incastConns(k ccKind, n int) (*sim.Scheduler, *netsim.TwoTier, []*tcp.Conn) {
	s := sim.NewScheduler()
	tt := netsim.NewTwoTier(s, 3, 3, netsim.DefaultTopologyConfig())
	tt.EnablePacketPool()
	var conns []*tcp.Conn
	for i := 0; i < n; i++ {
		cfg := k.cfg
		cfg.RTOMin, cfg.Seed = 10*sim.Millisecond, uint64(i+1)
		conns = append(conns, tcp.NewConn(cfg, k.recycle(nil), tt.Workers[i%len(tt.Workers)], tt.Aggregator, packet.FlowID(i+1)))
	}
	return s, tt, conns
}

// TestCCRecycleEqualsFresh: every module kind — NewReno, DCTCP, D2TCP and
// the Enhancer over each — lives through an observed, lossy 40-flow incast
// (ECN marks, timeouts, the state machine engaged), its connections close,
// the scheduler and tree reset, and each connection reopens with its module
// recycled by the factory step. Each recycled module must be the same
// object and, outside its keep-list, equal a fresh one opened on a fresh
// tree: Init is a full reset.
func TestCCRecycleEqualsFresh(t *testing.T) {
	const n = 40
	for _, k := range ccKinds() {
		t.Run(k.name, func(t *testing.T) {
			s, tt, conns := incastConns(k, n)
			reg := telemetry.NewRegistry()
			for _, c := range conns {
				if a, ok := c.Sender.CC().(telemetry.Attacher); ok {
					a.AttachTelemetry(reg)
				}
				c.Sender.Send(32 << 10)
			}
			tt.BottleneckPort.Link().SetLoss(0.02, 9)
			s.RunUntil(sim.Time(5 * sim.Second))
			dirty := false
			for _, c := range conns {
				switch cc := c.Sender.CC().(type) {
				case *dctcp.DCTCP:
					dirty = dirty || cc.Alpha() != 1
				case *d2tcp.D2TCP:
					dirty = dirty || cc.Updates() > 0
				case *Enhancer:
					dirty = dirty || cc.Stats().EnterTimeInc > 0
				case tcp.NewReno:
					dirty = true
				}
			}
			if !dirty {
				t.Fatal("first life left every module in its initial state: nothing to reset")
			}

			for _, c := range conns {
				c.Close()
			}
			s.Reset()
			tt.Reset()
			_, _, fresh := incastConns(k, n)
			for i, c := range conns {
				old := c.Sender.CC()
				cc := k.recycle(old)
				if _, stateless := old.(tcp.NewReno); !stateless && cc != old {
					t.Fatalf("flow %d: recycle built a new module instead of reusing the retiring one", i)
				}
				c.Reopen(c.Sender.Config(), cc, tt.Workers[i%len(tt.Workers)], tt.Aggregator, packet.FlowID(i+1))
				diffCC(t, k, c.Sender.CC(), fresh[i].Sender.CC())
			}
		})
	}
}
