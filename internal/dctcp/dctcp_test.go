package dctcp

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dctcpplus/internal/netsim"
	"dctcpplus/internal/obs"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/tcp"
)

func TestNewValidation(t *testing.T) {
	for _, g := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "gain must be in (0, 1]") {
					t.Errorf("gain %v panicked with %q, want the (0, 1] rule", g, msg)
				}
			}()
			New(g)
		}()
	}
	d := New(DefaultGain)
	if d.Gain() != 1.0/16 || d.Alpha() != 1 || d.Name() != "dctcp" {
		t.Error("constructor defaults wrong")
	}
}

// fakeSenderWire builds a two-host path with a CE-mangling filter for
// integration tests of the alpha estimator.
type markWire struct {
	sched *sim.Scheduler
	conn  *tcp.Conn
	mark  *bool // when true, every data packet is CE-marked
}

func newMarkWire(cfgMut func(*tcp.Config)) (*markWire, *DCTCP) {
	s := sim.NewScheduler()
	a := netsim.NewHost(s, 1, "a")
	b := netsim.NewHost(s, 2, "b")
	mark := new(bool)
	// Direct links with a marking shim on the data direction.
	shim := &markShim{dst: b, mark: mark}
	a.SetUplink(netsim.NewPort(s, netsim.NewLink(s, shim, 1e9, 50*sim.Microsecond),
		netsim.PortConfig{BufferBytes: 4 << 20}))
	b.SetUplink(netsim.NewPort(s, netsim.NewLink(s, a, 1e9, 50*sim.Microsecond),
		netsim.PortConfig{BufferBytes: 4 << 20}))
	cfg := Config()
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	d := New(DefaultGain)
	c := tcp.NewConn(cfg, d, a, b, 3)
	return &markWire{sched: s, conn: c, mark: mark}, d
}

type markShim struct {
	dst  netsim.Node
	mark *bool
}

func (m *markShim) ID() packet.NodeID { return 50 }
func (m *markShim) Deliver(p *packet.Packet) {
	if *m.mark && p.IsData() && p.ECN == packet.ECT {
		p.ECN = packet.CE
	}
	m.dst.Deliver(p)
}

func TestAlphaDecaysWithoutMarks(t *testing.T) {
	w, d := newMarkWire(nil)
	w.conn.Sender.Send(2 << 20) // 2MB clean transfer, alpha starts at 1
	w.sched.Run()
	if !w.conn.Sender.Done() {
		t.Fatal("transfer incomplete")
	}
	if d.Alpha() > 0.2 {
		t.Errorf("alpha = %v after unmarked transfer, want near 0", d.Alpha())
	}
}

func TestAlphaRisesUnderPersistentMarking(t *testing.T) {
	w, d := newMarkWire(nil)
	// First decay alpha with a clean transfer...
	w.conn.Sender.Send(1 << 20)
	w.sched.Run()
	low := d.Alpha()
	// ...then mark everything.
	*w.mark = true
	w.conn.Sender.Send(1 << 20)
	w.sched.Run()
	if !w.conn.Sender.Done() {
		t.Fatal("transfer incomplete")
	}
	if d.Alpha() <= low || d.Alpha() < 0.5 {
		t.Errorf("alpha = %v after full marking (was %v), want risen toward 1", d.Alpha(), low)
	}
}

func TestSsthreshAfterECNScalesWithAlpha(t *testing.T) {
	w, d := newMarkWire(nil)
	s := w.conn.Sender
	d.alpha = 0.5
	want := s.CwndMSS() * 0.75
	if got := d.SsthreshAfterECN(s); math.Abs(got-want) > 1e-9 {
		t.Errorf("ssthresh = %v, want %v", got, want)
	}
	d.alpha = 1
	if got := d.SsthreshAfterECN(s); math.Abs(got-s.CwndMSS()/2) > 1e-9 {
		t.Errorf("alpha=1 ssthresh = %v, want half", got)
	}
	if got := d.SsthreshAfterLoss(s); math.Abs(got-s.CwndMSS()/2) > 1e-9 {
		t.Errorf("loss ssthresh = %v, want half", got)
	}
}

func TestAlphaEWMAExactArithmetic(t *testing.T) {
	// Drive OnAck directly with a synthetic sender to check Equation 1.
	w, d := newMarkWire(nil)
	s := w.conn.Sender
	d.alpha = 0.5
	d.windowEnd = 0
	d.ackedBytes, d.markedBytes = 0, 0
	// Simulate: 1000 acked bytes, 250 marked, window boundary crossed.
	d.ackedBytes = 750
	d.markedBytes = 0
	d.OnAck(s, 250, true) // total acked 1000, marked 250 -> F=0.25
	want := (1-d.g)*0.5 + d.g*0.25
	if math.Abs(d.alpha-want) > 1e-12 {
		t.Errorf("alpha = %v, want %v", d.alpha, want)
	}
	// Counters must reset after the fold.
	if d.ackedBytes != 0 || d.markedBytes != 0 {
		t.Error("window counters not reset")
	}
}

// Property: alpha always stays in [0, 1] for any mark/ack pattern.
func TestAlphaBoundsProperty(t *testing.T) {
	f := func(marks []bool) bool {
		w, d := newMarkWire(nil)
		s := w.conn.Sender
		for _, m := range marks {
			d.OnAck(s, 1460, m)
			if d.alpha < 0 || d.alpha > 1 {
				return false
			}
			// Force frequent window boundaries.
			d.windowEnd = 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPacingDelayZero(t *testing.T) {
	w, d := newMarkWire(nil)
	if d.PacingDelay(w.conn.Sender) != 0 {
		t.Error("plain DCTCP must not pace")
	}
}

func TestConfigPreset(t *testing.T) {
	cfg := Config()
	if cfg.ECN != tcp.ECNPrecise {
		t.Error("DCTCP preset must use precise ECN echo")
	}
}

func TestDCTCPKeepsQueueNearK(t *testing.T) {
	// A single long DCTCP flow through a marking bottleneck should hold
	// the queue near K rather than filling the buffer — the headline DCTCP
	// property the paper's §II-A describes.
	s := sim.NewScheduler()
	star := netsim.NewStar(s, 2, netsim.DefaultTopologyConfig())
	cfg := Config()
	cfg.MaxCwnd = 200
	d := New(DefaultGain)
	c := tcp.NewConn(cfg, d, star.Hosts[0], star.Hosts[1], 9)

	// Sample the bottleneck queue (switch -> host1 port) during the bulk
	// of the transfer.
	port := star.Switch.RouteTo(star.Hosts[1].ID())
	var samples []int
	var tick func()
	tick = func() {
		samples = append(samples, port.QueueBytes())
		s.After(100*sim.Microsecond, tick)
	}
	s.After(5*sim.Millisecond, tick) // skip slow start
	c.Sender.OnComplete = func(int64) { s.Halt() }
	c.Sender.Send(20 << 20)
	s.Run()

	if len(samples) < 50 {
		t.Fatalf("only %d queue samples", len(samples))
	}
	var sum, over float64
	for _, q := range samples {
		sum += float64(q)
		if q > 3*32<<10 {
			over++
		}
	}
	mean := sum / float64(len(samples))
	k := float64(32 << 10)
	if mean > 2.5*k {
		t.Errorf("mean queue %0.f bytes, want oscillating near K=%0.f", mean, k)
	}
	if over/float64(len(samples)) > 0.1 {
		t.Errorf("queue above 3K for %.0f%% of samples", 100*over/float64(len(samples)))
	}
	if st := c.Sender.Stats(); st.Timeouts != 0 {
		t.Errorf("single flow should not time out, got %d", st.Timeouts)
	}
}

// dropShim discards data packets while *drop is set; ACKs always pass.
type dropShim struct {
	dst  netsim.Node
	drop *bool
}

func (m *dropShim) ID() packet.NodeID { return 51 }
func (m *dropShim) Deliver(p *packet.Packet) {
	if *m.drop && p.IsData() {
		return
	}
	m.dst.Deliver(p)
}

// TestWindowReanchorsAfterRTO is the regression for the observation-window
// anchor across a go-back-N rewind. Before the fix, windowEnd kept the
// pre-timeout snd_nxt, which exceeds the rewound snd_nxt: alpha updates
// then stall until the entire lost window is re-acknowledged, and the
// retransmitted bytes are double-counted in the marked-fraction
// accumulators. OnTimeout must re-anchor the window at the rewound
// snd_nxt and clear the accumulators.
func TestWindowReanchorsAfterRTO(t *testing.T) {
	s := sim.NewScheduler()
	a := netsim.NewHost(s, 1, "a")
	b := netsim.NewHost(s, 2, "b")
	drop := new(bool)
	shim := &dropShim{dst: b, drop: drop}
	a.SetUplink(netsim.NewPort(s, netsim.NewLink(s, shim, 1e9, 50*sim.Microsecond),
		netsim.PortConfig{BufferBytes: 4 << 20}))
	b.SetUplink(netsim.NewPort(s, netsim.NewLink(s, a, 1e9, 50*sim.Microsecond),
		netsim.PortConfig{BufferBytes: 4 << 20}))
	cfg := Config()
	cfg.InitialCwnd = 8
	cfg.RTOMin = 10 * sim.Millisecond
	d := New(DefaultGain)
	c := tcp.NewConn(cfg, d, a, b, 3)
	snd := c.Sender

	// Cut the data path once 10 MSS are acknowledged — mid-window, with
	// alpha's observation anchor strictly ahead of snd_una.
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
		// The RTO handler has not rewound yet when the record is emitted;
		// inspect the estimator right after it completes.
		s.After(0, func() {
			if d.windowEnd != snd.SndUna() {
				t.Errorf("windowEnd = %d after RTO, want re-anchored at rewound snd_una %d",
					d.windowEnd, snd.SndUna())
			}
			if d.ackedBytes != 0 || d.markedBytes != 0 {
				t.Errorf("accumulators survived the RTO: acked=%d marked=%d",
					d.ackedBytes, d.markedBytes)
			}
		})
	})

	snd.Send(64 * packet.MSS)
	s.RunUntil(sim.Time(5 * sim.Second))
	if !checked {
		t.Fatal("no RTO fired; the scenario never exercised the rewind")
	}
	if !snd.Done() {
		t.Fatal("transfer did not complete after recovery")
	}
}

// TestRuntimeTwinsFire shows alpha's always-on check.Unit "dctcp.alpha"
// is live: an estimate corrupted out of [0, 1] must panic at the next
// per-window update.
func TestRuntimeTwinsFire(t *testing.T) {
	w, d := newMarkWire(nil)
	d.OnAck(w.conn.Sender, 1000, false) // control: a sane alpha updates quietly
	d.alpha = 2
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "invariant violated: dctcp.alpha") {
			t.Fatalf("corrupted alpha: got panic %q, want the dctcp.alpha invariant violation", msg)
		}
	}()
	d.OnAck(w.conn.Sender, 1000, false)
}
