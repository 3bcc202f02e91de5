package core

import (
	"strings"
	"testing"
	"testing/quick"

	"dctcpplus/internal/dctcp"
	"dctcpplus/internal/netsim"
	"dctcpplus/internal/obs"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/tcp"
)

// plusWire builds a two-host path with a controllable CE-marking shim, a
// DCTCP+ sender and a precise-echo receiver.
type plusWire struct {
	sched *sim.Scheduler
	conn  *tcp.Conn
	enh   *Enhancer
	mark  *bool
}

type ceShim struct {
	dst  netsim.Node
	mark *bool
}

func (m *ceShim) ID() packet.NodeID { return 50 }
func (m *ceShim) Deliver(p *packet.Packet) {
	if *m.mark && p.IsData() && p.ECN == packet.ECT {
		p.ECN = packet.CE
	}
	m.dst.Deliver(p)
}

func newPlusWire(cfg Config, mut func(*tcp.Config)) *plusWire {
	s := sim.NewScheduler()
	a := netsim.NewHost(s, 1, "a")
	b := netsim.NewHost(s, 2, "b")
	mark := new(bool)
	shim := &ceShim{dst: b, mark: mark}
	a.SetUplink(netsim.NewPort(s, netsim.NewLink(s, shim, 1e9, 50*sim.Microsecond),
		netsim.PortConfig{BufferBytes: 4 << 20}))
	b.SetUplink(netsim.NewPort(s, netsim.NewLink(s, a, 1e9, 50*sim.Microsecond),
		netsim.PortConfig{BufferBytes: 4 << 20}))
	tcfg := SenderConfig()
	if mut != nil {
		mut(&tcfg)
	}
	enh := New(dctcp.DefaultGain, cfg)
	conn := tcp.NewConn(tcfg, enh, a, b, 3)
	return &plusWire{sched: s, conn: conn, enh: enh, mark: mark}
}

func TestStateStrings(t *testing.T) {
	if StateNormal.String() != "DCTCP_NORMAL" ||
		StateTimeInc.String() != "DCTCP_Time_Inc" ||
		StateTimeDes.String() != "DCTCP_Time_Des" ||
		State(9).String() != "?" {
		t.Error("state strings wrong")
	}
}

// TestConfigValidation gives New configs that each break one field's
// documented range and requires a panic naming that rule.
func TestConfigValidation(t *testing.T) {
	bad := []struct {
		edit func(*Config)
		want string
	}{
		{func(c *Config) { c.BackoffUnit = 0 }, "BackoffUnit must be positive"},
		{func(c *Config) { c.DivisorFactor = 1 }, "DivisorFactor must exceed 1"},
		{func(c *Config) { c.ThresholdT = -1 }, "negative ThresholdT"},
		{func(c *Config) { c.DecayInterval = -1 }, "negative DecayInterval"},
	}
	for i, tc := range bad {
		cfg := DefaultConfig()
		tc.edit(&cfg)
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, tc.want) {
					t.Errorf("bad config %d panicked with %q, want %q", i, msg, tc.want)
				}
			}()
			New(dctcp.DefaultGain, cfg)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil inner did not panic")
			}
		}()
		Enhance(nil, DefaultConfig())
	}()
}

func TestNameAndAccessors(t *testing.T) {
	e := New(dctcp.DefaultGain, DefaultConfig())
	if e.Name() != "dctcp+" {
		t.Errorf("name = %q", e.Name())
	}
	if e.State() != StateNormal || e.SlowTime() != 0 {
		t.Error("fresh enhancer not in Normal/0")
	}
	if e.Inner().Name() != "dctcp" {
		t.Error("inner not dctcp")
	}
	if e.ConfigUsed().DivisorFactor != 2 {
		t.Error("config not retained")
	}
	r := Enhance(tcp.NewReno{}, DefaultConfig())
	if r.Name() != "reno+" {
		t.Errorf("reno+ name = %q", r.Name())
	}
}

func TestSenderConfigFloor(t *testing.T) {
	cfg := SenderConfig()
	if cfg.MinCwnd != 1 {
		t.Errorf("MinCwnd = %v, want 1 (footnote 3)", cfg.MinCwnd)
	}
	if cfg.ECN != tcp.ECNPrecise {
		t.Error("DCTCP+ must use precise echo")
	}
}

// driveEvolve drives the state machine directly through a sender pinned at
// its window floor.
func pinnedSender(t *testing.T) (*plusWire, *tcp.Sender) {
	t.Helper()
	w := newPlusWire(DefaultConfig(), nil)
	return w, w.conn.Sender
}

func TestStateMachineTransitions(t *testing.T) {
	w, s := pinnedSender(t)
	e := w.enh
	// Fresh sender: cwnd = 2 > MinCwnd = 1, so even ECE keeps Normal.
	e.evolve(s, true, false)
	if e.State() != StateNormal {
		t.Fatalf("state = %v; cwnd above floor must stay Normal", e.State())
	}

	// Pin the window at the floor by collapsing via a synthetic timeout
	// path: simulate cwnd at min using a config where MinCwnd = InitialCwnd.
	// The state machine is stepped at a fixed virtual instant here, so
	// disable the decay rate limit (tested separately).
	mcfg := DefaultConfig()
	mcfg.DecayInterval = 0
	w2 := newPlusWire(mcfg, func(c *tcp.Config) {
		c.InitialCwnd = 1
		c.MinCwnd = 1
	})
	e2, s2 := w2.enh, w2.conn.Sender

	// Normal --congested--> TimeInc with slow_time = random(unit) >= 0.
	e2.evolve(s2, true, false)
	if e2.State() != StateTimeInc {
		t.Fatalf("state = %v, want TimeInc", e2.State())
	}
	if e2.SlowTime() < 0 || e2.SlowTime() >= e2.cfg.BackoffUnit {
		t.Errorf("slow_time = %v, want in [0, unit)", e2.SlowTime())
	}

	// TimeInc --congested--> TimeInc, slow_time grows.
	before := e2.SlowTime()
	e2.evolve(s2, true, false)
	if e2.State() != StateTimeInc || e2.SlowTime() < before {
		t.Errorf("additive increase failed: %v -> %v", before, e2.SlowTime())
	}

	// TimeInc --clean ACK--> TimeDes, slow_time divided.
	st := e2.SlowTime()
	e2.evolve(s2, false, false)
	if e2.State() != StateTimeDes {
		t.Fatalf("state = %v, want TimeDes", e2.State())
	}
	if e2.SlowTime() != sim.Duration(float64(st)/2) {
		t.Errorf("slow_time = %v, want %v/2", e2.SlowTime(), st)
	}

	// TimeDes --congested--> TimeInc again.
	e2.evolve(s2, true, false)
	if e2.State() != StateTimeInc {
		t.Fatalf("state = %v, want TimeInc after congestion in TimeDes", e2.State())
	}

	// Decay to Normal: repeated clean ACKs divide until <= threshold, then
	// return to Normal with slow_time reset.
	for i := 0; i < 64 && e2.State() != StateNormal; i++ {
		e2.evolve(s2, false, false)
	}
	if e2.State() != StateNormal || e2.SlowTime() != 0 {
		t.Errorf("machine did not return to Normal: %v slow=%v", e2.State(), e2.SlowTime())
	}
	stats := e2.Stats()
	if stats.EnterTimeInc != 2 || stats.ReturnsNormal != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.MaxSlowTime <= 0 {
		t.Error("MaxSlowTime not recorded")
	}
}

func TestDecayRateLimited(t *testing.T) {
	// With a decay interval, a slow_time built in a flow's first interval
	// survives entry into TimeDes until that interval ends, and a burst of
	// clean evaluations divides it at most once per interval — clean ACKs
	// cannot erase the regulation.
	cfg := DefaultConfig()
	cfg.DecayInterval = 5 * sim.Millisecond
	w := newPlusWire(cfg, func(c *tcp.Config) {
		c.InitialCwnd = 1
		c.MinCwnd = 1
	})
	e, s := w.enh, w.conn.Sender
	for i := 0; i < 8; i++ {
		e.evolve(s, true, false) // build up slow_time
	}
	peak := e.SlowTime()
	if peak <= 0 {
		t.Fatal("no slow_time accumulated")
	}
	// First clean ACK enters TimeDes but must not touch slow_time: Init
	// anchored the cadence clock at the flow's start, 1ms earlier.
	w.sched.At(sim.Time(1*sim.Millisecond), func() {
		e.evolve(s, false, false)
		if e.State() != StateTimeDes {
			t.Fatalf("state = %v, want TimeDes", e.State())
		}
		if e.SlowTime() != peak {
			t.Errorf("slow_time = %v on TimeDes entry, want the full %v", e.SlowTime(), peak)
		}
	})
	// A clean burst one interval later divides exactly once.
	w.sched.At(sim.Time(7*sim.Millisecond), func() {
		for i := 0; i < 10; i++ {
			e.evolve(s, false, false)
		}
		want := sim.Duration(float64(peak) / cfg.DivisorFactor)
		if e.SlowTime() != want {
			t.Errorf("slow_time = %v, want a single division to %v", e.SlowTime(), want)
		}
		if e.Stats().DecSteps != 1 {
			t.Errorf("DecSteps = %d, want 1", e.Stats().DecSteps)
		}
	})
	w.sched.Run()
}

// TestDecayCadenceTable pins the decay gate end to end: one cadence rule
// covers every decrease, the one on entering Time_Des included. A decrease
// fires unless another did within the last DecayInterval, counted from
// Init when none has (regression for the DecSteps>0 gate that let a single
// clean ACK halve a freshly built slow_time). Entry into Time_Des does not
// restart the clock, so an entry a full interval after the last decrease
// decreases at once. A zero interval decays on every clean evaluation.
func TestDecayCadenceTable(t *testing.T) {
	type step struct {
		at        sim.Duration
		congested bool
		wantDecs  int64 // cumulative DecSteps after this evaluation
	}
	ms := sim.Millisecond
	cases := []struct {
		name     string
		interval sim.Duration
		steps    []step
	}{
		{
			name:     "first decay waits a full interval",
			interval: 5 * ms,
			steps: []step{
				{at: 0, congested: true, wantDecs: 0},        // engage TimeInc
				{at: 1 * ms, congested: false, wantDecs: 0},  // enter TimeDes inside Init's interval: gated
				{at: 2 * ms, congested: true, wantDecs: 0},   // back to TimeInc
				{at: 6 * ms, congested: false, wantDecs: 1},  // enter TimeDes 6ms after Init: decreases at once
				{at: 7 * ms, congested: false, wantDecs: 1},  // gated
				{at: 11 * ms, congested: false, wantDecs: 2}, // steady cadence
				{at: 12 * ms, congested: true, wantDecs: 2},  // back to TimeInc
				{at: 13 * ms, congested: false, wantDecs: 2}, // entry 2ms after the last decrease: gated
				{at: 16 * ms, congested: false, wantDecs: 3}, // last decrease + 5ms
			},
		},
		{
			name:     "zero interval decays every clean evaluation",
			interval: 0,
			steps: []step{
				{at: 0, congested: true, wantDecs: 0},
				{at: 1 * ms, congested: false, wantDecs: 1},
				{at: 1*ms + sim.Microsecond, congested: false, wantDecs: 2},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.DecayInterval = tc.interval
			// Deterministic large backoff so repeated halvings stay above
			// ThresholdT for the whole table.
			cfg.Randomize = false
			cfg.BackoffUnit = 100 * ms
			w := newPlusWire(cfg, func(c *tcp.Config) {
				c.InitialCwnd = 1
				c.MinCwnd = 1
			})
			e, s := w.enh, w.conn.Sender
			for _, st := range tc.steps {
				st := st
				w.sched.At(sim.Time(st.at), func() {
					e.evolve(s, st.congested, false)
					if got := e.Stats().DecSteps; got != st.wantDecs {
						t.Errorf("t=%v: DecSteps = %d, want %d", st.at, got, st.wantDecs)
					}
				})
			}
			w.sched.Run()
		})
	}
}

// hostPair wires two hosts back to back over 1 Gbps, 50µs links.
func hostPair(s *sim.Scheduler) (a, b *netsim.Host) {
	a = netsim.NewHost(s, 1, "a")
	b = netsim.NewHost(s, 2, "b")
	a.SetUplink(netsim.NewPort(s, netsim.NewLink(s, b, 1e9, 50*sim.Microsecond),
		netsim.PortConfig{BufferBytes: 4 << 20}))
	b.SetUplink(netsim.NewPort(s, netsim.NewLink(s, a, 1e9, 50*sim.Microsecond),
		netsim.PortConfig{BufferBytes: 4 << 20}))
	return a, b
}

// TestInitAnchorsStateClockAtNonzeroStart is the regression for senders
// created mid-run (staggered incast arrivals, background flows): Init must
// anchor the occupancy clock at the sender's start time, not the epoch.
func TestInitAnchorsStateClockAtNonzeroStart(t *testing.T) {
	s := sim.NewScheduler()
	a, b := hostPair(s)

	start := sim.Time(100 * sim.Millisecond)
	var e *Enhancer
	var snd *tcp.Sender
	s.At(start, func() {
		e = New(dctcp.DefaultGain, DefaultConfig())
		conn := tcp.NewConn(SenderConfig(), e, a, b, 3)
		snd = conn.Sender
	})
	s.At(start.Add(5*sim.Millisecond), func() {
		occ := e.Occupancy(snd.Now())
		if occ[StateNormal] != 5*sim.Millisecond {
			t.Errorf("Normal occupancy = %v for a flow alive 5ms (pre-start time leaked in)",
				occ[StateNormal])
		}
		if occ[StateTimeInc] != 0 || occ[StateTimeDes] != 0 {
			t.Errorf("engaged-state occupancy nonzero before engagement: %v", occ)
		}
	})
	s.Run()
}

// TestInitAnchorsDecayClockAtNonzeroStart: a sender created mid-run counts
// its first DecayInterval from its own start, not from the epoch, so a
// slow_time built in its first millisecond is not divided on the first
// clean ACK.
func TestInitAnchorsDecayClockAtNonzeroStart(t *testing.T) {
	s := sim.NewScheduler()
	a, b := hostPair(s)
	cfg := DefaultConfig()
	cfg.DecayInterval = 5 * sim.Millisecond
	tcfg := SenderConfig()
	tcfg.InitialCwnd = 1

	start := sim.Time(100 * sim.Millisecond)
	var e *Enhancer
	var snd *tcp.Sender
	s.At(start, func() {
		e = New(dctcp.DefaultGain, cfg)
		snd = tcp.NewConn(tcfg, e, a, b, 3).Sender
		e.evolve(snd, true, false) // engage TimeInc at the floor
	})
	s.At(start.Add(sim.Millisecond), func() {
		e.evolve(snd, false, false) // enter TimeDes 1ms after the start
		if e.State() != StateTimeDes || e.Stats().DecSteps != 0 {
			t.Errorf("state %v, DecSteps %d: want TimeDes with the decrease gated by the start anchor",
				e.State(), e.Stats().DecSteps)
		}
	})
	s.Run()
}

func TestCwndCapWhileEngaged(t *testing.T) {
	w := newPlusWire(DefaultConfig(), func(c *tcp.Config) {
		c.InitialCwnd = 1
		c.MinCwnd = 1
	})
	e, s := w.enh, w.conn.Sender
	if _, active := e.CwndCap(s); active {
		t.Error("cap active in Normal state")
	}
	e.evolve(s, true, false)
	cap, active := e.CwndCap(s)
	if !active || cap != s.MinCwndMSS() {
		t.Errorf("engaged cap = %v/%v, want floor", cap, active)
	}
}

func TestOccupancyAccounting(t *testing.T) {
	w := newPlusWire(DefaultConfig(), func(c *tcp.Config) {
		c.InitialCwnd = 1
		c.MinCwnd = 1
	})
	e, s := w.enh, w.conn.Sender
	// Spend 10ms in Normal, then engage, then 5ms in TimeInc.
	w.sched.At(10*sim.Time(sim.Millisecond), func() { e.evolve(s, true, false) })
	w.sched.At(15*sim.Time(sim.Millisecond), func() {
		occ := e.Occupancy(s.Now())
		if occ[StateNormal] != 10*sim.Millisecond {
			t.Errorf("Normal occupancy = %v, want 10ms", occ[StateNormal])
		}
		if occ[StateTimeInc] != 5*sim.Millisecond {
			t.Errorf("TimeInc occupancy = %v, want 5ms", occ[StateTimeInc])
		}
		if occ[StateTimeDes] != 0 {
			t.Errorf("TimeDes occupancy = %v, want 0", occ[StateTimeDes])
		}
	})
	w.sched.Run()
}

func TestOccupancySumsToElapsed(t *testing.T) {
	// Property-ish: after an arbitrary transition sequence, occupancies sum
	// to elapsed virtual time.
	w := newPlusWire(DefaultConfig(), func(c *tcp.Config) {
		c.InitialCwnd = 1
		c.MinCwnd = 1
	})
	e, s := w.enh, w.conn.Sender
	rng := sim.NewRNG(12)
	var tEnd sim.Time
	for i := 0; i < 40; i++ {
		at := sim.Time(rng.Intn(1000)+1) * sim.Time(sim.Microsecond)
		tEnd = tEnd.Add(sim.Duration(at))
		congested := rng.Intn(2) == 0
		w.sched.At(tEnd, func() { e.evolve(s, congested, false) })
	}
	w.sched.Run()
	occ := e.Occupancy(tEnd)
	total := occ[StateNormal] + occ[StateTimeInc] + occ[StateTimeDes]
	if total != tEnd.Sub(0) {
		t.Errorf("occupancy sum %v != elapsed %v", total, tEnd.Sub(0))
	}
}

func TestRetransmissionTriggersTimeInc(t *testing.T) {
	w := newPlusWire(DefaultConfig(), func(c *tcp.Config) {
		c.InitialCwnd = 1
		c.MinCwnd = 1
	})
	// OnTimeout must evaluate the machine with the retrans condition: the
	// engine collapses cwnd to 1 <= MinCwnd before calling OnTimeout.
	w.enh.OnTimeout(w.conn.Sender)
	if w.enh.State() != StateTimeInc {
		t.Errorf("state after RTO = %v, want TimeInc", w.enh.State())
	}
}

func TestPacingDelayOnlyWhenEngaged(t *testing.T) {
	w := newPlusWire(DefaultConfig(), func(c *tcp.Config) {
		c.InitialCwnd = 1
		c.MinCwnd = 1
	})
	e, s := w.enh, w.conn.Sender
	if e.PacingDelay(s) != 0 {
		t.Error("Normal state must not pace")
	}
	e.evolve(s, true, false)
	e.evolve(s, true, false) // ensure some slow_time accumulated
	if e.State() == StateTimeInc && e.SlowTime() > 0 {
		// Randomized pacing: each draw lands in [slow/2, 3*slow/2).
		for i := 0; i < 50; i++ {
			d := e.PacingDelay(s)
			if d < e.SlowTime()/2 || d >= e.SlowTime()/2+e.SlowTime() {
				t.Fatalf("pacing draw %v outside [%v, %v)", d, e.SlowTime()/2, e.SlowTime()/2+e.SlowTime())
			}
		}
	}
}

func TestPacingDelayDeterministicInPartialMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Randomize = false
	w := newPlusWire(cfg, func(c *tcp.Config) {
		c.InitialCwnd = 1
		c.MinCwnd = 1
	})
	e, s := w.enh, w.conn.Sender
	e.evolve(s, true, false)
	if e.SlowTime() == 0 {
		t.Fatal("no slow_time after congestion")
	}
	for i := 0; i < 10; i++ {
		if e.PacingDelay(s) != e.SlowTime() {
			t.Fatal("partial mode must pace by exactly slow_time")
		}
	}
}

func TestPartialModeDeterministicBackoff(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Randomize = false
	w := newPlusWire(cfg, func(c *tcp.Config) {
		c.InitialCwnd = 1
		c.MinCwnd = 1
	})
	e, s := w.enh, w.conn.Sender
	e.evolve(s, true, false)
	if e.SlowTime() != cfg.BackoffUnit {
		t.Errorf("partial-mode first step = %v, want exactly one unit", e.SlowTime())
	}
	e.evolve(s, true, false)
	if e.SlowTime() != 2*cfg.BackoffUnit {
		t.Errorf("partial-mode second step = %v, want exactly two units", e.SlowTime())
	}
}

func TestRandomizedBackoffDiffersAcrossSenders(t *testing.T) {
	// Two senders with different seeds must draw different slow_time
	// sequences — this is the desynchronization mechanism.
	mk := func(seed uint64) sim.Duration {
		w := newPlusWire(DefaultConfig(), func(c *tcp.Config) {
			c.InitialCwnd = 1
			c.MinCwnd = 1
			c.Seed = seed
		})
		for i := 0; i < 4; i++ {
			w.enh.evolve(w.conn.Sender, true, false)
		}
		return w.enh.SlowTime()
	}
	a, b := mk(1), mk(2)
	if a == b {
		t.Errorf("seeds 1 and 2 produced identical slow_time %v", a)
	}
}

// Property: slow_time is never negative, and in Normal state it is zero.
func TestSlowTimeInvariantProperty(t *testing.T) {
	f := func(events []bool, seed uint64) bool {
		w := newPlusWire(DefaultConfig(), func(c *tcp.Config) {
			c.InitialCwnd = 1
			c.MinCwnd = 1
			c.Seed = seed
		})
		e, s := w.enh, w.conn.Sender
		for _, congested := range events {
			e.evolve(s, congested, false)
			if e.SlowTime() < 0 {
				return false
			}
			if e.State() == StateNormal && e.SlowTime() != 0 {
				return false
			}
			if e.State() != StateNormal && e.SlowTime() > 0 {
				if d := e.PacingDelay(s); d < e.SlowTime()/2 || d >= e.SlowTime()/2+e.SlowTime() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEndToEndEngagesUnderHeavyMarking(t *testing.T) {
	// Integration: persistent CE marking drives the window to the floor
	// and must engage the pacing machine, slowing the send rate.
	w := newPlusWire(DefaultConfig(), nil)
	*w.mark = true
	engaged := false
	w.conn.Sender.Sink.Subscribe(new(obs.Sub), func(r obs.Record, _ *packet.Packet) {
		if r.Kind == obs.AckProcessed && w.enh.State() != StateNormal {
			engaged = true
		}
	})
	done := false
	w.conn.Sender.OnComplete = func(int64) { done = true }
	w.conn.Sender.Send(200 * packet.MSS)
	w.sched.RunUntil(sim.Time(30 * sim.Second))
	if !done {
		t.Fatal("transfer incomplete")
	}
	if !engaged {
		t.Error("enhancement mechanism never engaged under full marking")
	}
	if w.enh.Stats().EnterTimeInc == 0 {
		t.Error("no TimeInc entries recorded")
	}
	if got := w.conn.Receiver.Stats().DeliveredByte; got != 200*packet.MSS {
		t.Errorf("delivered %d", got)
	}
}

func TestEndToEndCleanPathStaysNormal(t *testing.T) {
	w := newPlusWire(DefaultConfig(), nil)
	w.conn.Sender.Send(1 << 20)
	w.sched.Run()
	if !w.conn.Sender.Done() {
		t.Fatal("transfer incomplete")
	}
	if w.enh.State() != StateNormal || w.enh.Stats().EnterTimeInc != 0 {
		t.Errorf("clean path engaged the mechanism: %v %+v", w.enh.State(), w.enh.Stats())
	}
}

func TestEnhancedRenoWorks(t *testing.T) {
	// §VII extension: the mechanism composed with Reno-ECN must still
	// complete transfers.
	s := sim.NewScheduler()
	a := netsim.NewHost(s, 1, "a")
	b := netsim.NewHost(s, 2, "b")
	mark := new(bool)
	*mark = true
	shim := &ceShim{dst: b, mark: mark}
	a.SetUplink(netsim.NewPort(s, netsim.NewLink(s, shim, 1e9, 50*sim.Microsecond),
		netsim.PortConfig{BufferBytes: 4 << 20}))
	b.SetUplink(netsim.NewPort(s, netsim.NewLink(s, a, 1e9, 50*sim.Microsecond),
		netsim.PortConfig{BufferBytes: 4 << 20}))
	cfg := tcp.DefaultConfig()
	cfg.ECN = tcp.ECNClassic
	cfg.MinCwnd = 1
	enh := Enhance(tcp.NewReno{}, DefaultConfig())
	c := tcp.NewConn(cfg, enh, a, b, 3)
	done := false
	c.Sender.OnComplete = func(int64) { done = true }
	c.Sender.Send(100 * packet.MSS)
	s.RunUntil(sim.Time(30 * sim.Second))
	if !done {
		t.Fatal("reno+ transfer incomplete")
	}
}

// TestRuntimeTwinsFire shows slowTime's always-on check.NonNegativeDur
// "core.slow_time" is live: a slow_time corrupted negative must panic at
// the next Algorithm 1 step.
func TestRuntimeTwinsFire(t *testing.T) {
	w := newPlusWire(DefaultConfig(), nil)
	w.enh.evolve(w.conn.Sender, false, false) // control: a sane slow_time steps quietly
	w.enh.state, w.enh.slowTime = StateTimeInc, -1
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "invariant violated: core.slow_time = ") {
			t.Fatalf("corrupted slowTime: got panic %q, want the core.slow_time invariant violation", msg)
		}
	}()
	w.enh.evolve(w.conn.Sender, false, false)
}
