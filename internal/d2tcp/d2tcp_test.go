package d2tcp

import (
	"math"
	"testing"

	"dctcpplus/internal/core"
	"dctcpplus/internal/dctcp"
	"dctcpplus/internal/netsim"
	"dctcpplus/internal/obs"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/tcp"
)

func TestDeadlineFactorClamp(t *testing.T) {
	if New(dctcp.DefaultGain, 0.1).DeadlineFactor() != MinDeadlineFactor {
		t.Error("low d not clamped")
	}
	if New(dctcp.DefaultGain, 9).DeadlineFactor() != MaxDeadlineFactor {
		t.Error("high d not clamped")
	}
	if New(dctcp.DefaultGain, 1.3).DeadlineFactor() != 1.3 {
		t.Error("in-range d altered")
	}
	if New(dctcp.DefaultGain, 1).Name() != "d2tcp" {
		t.Error("name wrong")
	}
}

func TestPenaltyGammaCorrection(t *testing.T) {
	// With the same alpha, a far-deadline flow (d=0.5) must back off harder
	// than a near-deadline one (d=2): p = alpha^d is decreasing in d for
	// alpha < 1.
	far := New(dctcp.DefaultGain, 0.5)
	near := New(dctcp.DefaultGain, 2)
	// Fresh modules share alpha = 1 -> p = 1 for both.
	if far.Penalty() != 1 || near.Penalty() != 1 {
		t.Fatalf("alpha=1 penalties: %v %v", far.Penalty(), near.Penalty())
	}
	// Drive alpha down identically via direct arithmetic: use the d=1
	// equivalence instead — compare against DCTCP's cut at a known alpha.
	if got := pow(0.25, 0.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("0.25^0.5 = %v", got)
	}
	if got := pow(0.25, 2); math.Abs(got-0.0625) > 1e-12 {
		t.Errorf("0.25^2 = %v", got)
	}
	if pow(0, 1) != 0 || pow(1, 2) != 1 || pow(-1, 2) != 0 || pow(2, 2) != 1 {
		t.Error("pow edges wrong")
	}
}

func TestD1EquivalentToDCTCPCut(t *testing.T) {
	s := sim.NewScheduler()
	star := netsim.NewStar(s, 2, netsim.DefaultTopologyConfig())
	d2 := New(dctcp.DefaultGain, 1)
	c := tcp.NewConn(Config(), d2, star.Hosts[0], star.Hosts[1], 1)
	base := dctcp.New(dctcp.DefaultGain)
	// Same alpha (both fresh = 1): identical ssthresh proposals.
	if math.Abs(d2.SsthreshAfterECN(c.Sender)-base.SsthreshAfterECN(c.Sender)) > 1e-12 {
		t.Error("d=1 cut differs from DCTCP")
	}
	if math.Abs(d2.SsthreshAfterLoss(c.Sender)-c.Sender.CwndMSS()/2) > 1e-12 {
		t.Error("loss cut not half")
	}
}

// TestDeadlineDifferentiation: two long D2TCP flows share a bottleneck;
// the near-deadline flow (d=2) should end up with more bandwidth than the
// far-deadline flow (d=0.5) — the D2TCP paper's core property.
func TestDeadlineDifferentiation(t *testing.T) {
	s := sim.NewScheduler()
	star := netsim.NewStar(s, 3, netsim.DefaultTopologyConfig())
	mk := func(host int, flow packet.FlowID, d float64, seed uint64) *tcp.Conn {
		cfg := Config()
		cfg.Seed = seed
		cfg.MaxCwnd = 64
		return tcp.NewConn(cfg, New(dctcp.DefaultGain, d), star.Hosts[host], star.Hosts[2], flow)
	}
	near := mk(0, 1, 2.0, 1)
	far := mk(1, 2, 0.5, 2)
	const size = 24 << 20
	near.Sender.Send(size)
	far.Sender.Send(size)
	s.RunUntil(sim.Time(200 * sim.Millisecond))

	nearBytes := near.Receiver.Stats().DeliveredByte
	farBytes := far.Receiver.Stats().DeliveredByte
	if nearBytes <= farBytes {
		t.Errorf("near-deadline flow got %d <= far-deadline %d", nearBytes, farBytes)
	}
	// Differentiation, not starvation: far flow still progresses.
	if farBytes == 0 {
		t.Error("far-deadline flow starved entirely")
	}
}

// rtoShim sits on the data path and drops data segments while *drop is set,
// forcing a genuine RTO in a live connection.
type rtoShim struct {
	dst  netsim.Node
	drop *bool
}

func (m *rtoShim) ID() packet.NodeID { return 51 }
func (m *rtoShim) Deliver(p *packet.Packet) {
	if *m.drop && p.IsData() {
		return
	}
	m.dst.Deliver(p)
}

// TestOnTimeoutForwardsToEstimator is the regression for the swallowed RTO
// hook: D2TCP's OnTimeout was a no-op instead of forwarding to the inner
// DCTCP estimator, so after a go-back-N rewind the observation window
// anchor stayed at the pre-timeout snd_nxt — alpha folds stalled until the
// entire lost window was re-acknowledged and the retransmitted bytes were
// double-counted in the marked fraction (the exact bug fixed for plain
// DCTCP in TestWindowReanchorsAfterRTO, resurfaced here by the oracle's
// alpha-cadence rule). Post-fix, the first window of ACKs after the rewind
// must complete a fold.
func TestOnTimeoutForwardsToEstimator(t *testing.T) {
	s := sim.NewScheduler()
	a := netsim.NewHost(s, 1, "a")
	b := netsim.NewHost(s, 2, "b")
	drop := new(bool)
	shim := &rtoShim{dst: b, drop: drop}
	a.SetUplink(netsim.NewPort(s, netsim.NewLink(s, shim, 1e9, 50*sim.Microsecond),
		netsim.PortConfig{BufferBytes: 4 << 20}))
	b.SetUplink(netsim.NewPort(s, netsim.NewLink(s, a, 1e9, 50*sim.Microsecond),
		netsim.PortConfig{BufferBytes: 4 << 20}))
	cfg := Config()
	cfg.Seed = 7
	d2 := New(dctcp.DefaultGain, 1.5)
	c := tcp.NewConn(cfg, d2, a, b, 3)
	snd := c.Sender

	// Cut the data path once 10 MSS are acknowledged — mid-window, with the
	// estimator's observation anchor strictly ahead of snd_una.
	checked := false
	snd.Sink.Subscribe(new(obs.Sub), func(r obs.Record, _ *packet.Packet) {
		if r.Kind == obs.AckProcessed {
			if !*drop && !checked && snd.SndUna() >= 10*packet.MSS {
				*drop = true
			}
			return
		}
		if r.Kind != obs.Timeout || checked {
			return
		}
		checked = true
		*drop = false // let the retransmissions through
		// The RTO handler rewinds snd_nxt and then invokes cc.OnTimeout;
		// inspect right after it completes. With the hook forwarded, the
		// window anchor equals the rewound snd_una, so acknowledging one
		// more MSS must complete an alpha fold. With the no-op hook the
		// anchor is still the pre-timeout snd_nxt and no fold happens.
		s.After(0, func() {
			before := d2.Updates()
			d2.OnAck(snd, packet.MSS, false)
			if d2.Updates() != before+1 {
				t.Errorf("no alpha fold after RTO rewind: updates %d -> %d (window anchor not re-anchored)",
					before, d2.Updates())
			}
			s.Halt()
		})
	})

	snd.Send(64 * packet.MSS)
	s.RunUntil(sim.Time(5 * sim.Second))
	if !checked {
		t.Fatal("no RTO fired; the scenario never exercised the rewind")
	}
}

// TestEnhancedD2TCP: the §VII composition — D2TCP wrapped with the DCTCP+
// enhancement mechanism survives a 60-flow incast-style squeeze.
func TestEnhancedD2TCP(t *testing.T) {
	s := sim.NewScheduler()
	tt := netsim.NewTwoTier(s, 3, 3, netsim.DefaultTopologyConfig())
	const n = 30
	done := 0
	for i := 0; i < n; i++ {
		cfg := Config()
		cfg.MinCwnd = 1
		cfg.Seed = uint64(i + 1)
		cc := core.Enhance(New(dctcp.DefaultGain, 1.5), core.DefaultConfig())
		if cc.Name() != "d2tcp+" {
			t.Fatalf("composed name = %q", cc.Name())
		}
		conn := tcp.NewConn(cfg, cc, tt.Workers[i%9], tt.Aggregator, packet.FlowID(i+1))
		conn.Sender.OnComplete = func(int64) { done++ }
		conn.Sender.Send(64 << 10)
	}
	s.RunUntil(sim.Time(30 * sim.Second))
	if done != n {
		t.Errorf("completed %d/%d flows", done, n)
	}
}
