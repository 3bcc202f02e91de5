package trace

import (
	"slices"
	"testing"

	"dctcpplus/internal/netsim"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/tcp"
)

func twoHosts(t *testing.T) (*sim.Scheduler, *netsim.Star) {
	t.Helper()
	s := sim.NewScheduler()
	return s, netsim.NewStar(s, 2, netsim.DefaultTopologyConfig())
}

func TestCwndProbeRecordsPerAck(t *testing.T) {
	s, star := twoHosts(t)
	c := tcp.NewConn(tcp.DefaultConfig(), tcp.NewReno{}, star.Hosts[0], star.Hosts[1], 1)
	p := NewCwndProbe()
	p.Attach(c.Sender)
	c.Sender.Send(64 * packet.MSS)
	s.Run()
	if !c.Sender.Done() {
		t.Fatal("transfer incomplete")
	}
	if p.Events() == 0 || p.Hist().Total() != p.Events() {
		t.Errorf("events=%d histTotal=%d", p.Events(), p.Hist().Total())
	}
	// Clean transfer: no ECE ever, so the coincidence fraction is zero.
	if p.ECEAtMinFrac() != 0 {
		t.Errorf("ECEAtMinFrac = %v on clean path", p.ECEAtMinFrac())
	}
	// cwnd grew past initial 2 during slow start: histogram has bins > 2.
	found := false
	for _, b := range p.Hist().Bins() {
		if b > 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("histogram bins = %v, expected growth beyond 2", p.Hist().Bins())
	}
}

func TestCwndProbeChainsExistingHook(t *testing.T) {
	s, star := twoHosts(t)
	c := tcp.NewConn(tcp.DefaultConfig(), tcp.NewReno{}, star.Hosts[0], star.Hosts[1], 1)
	var prevCalls int
	c.Sender.OnAckProbe = func(*tcp.Sender, bool) { prevCalls++ }
	p := NewCwndProbe()
	p.Attach(c.Sender)
	c.Sender.Send(4 * packet.MSS)
	s.Run()
	if prevCalls == 0 {
		t.Error("existing hook was not chained")
	}
	if p.Events() != int64(prevCalls) {
		t.Errorf("probe %d vs chained %d", p.Events(), prevCalls)
	}
}

func TestCwndProbeFloorBin(t *testing.T) {
	p := NewCwndProbe()
	s, star := twoHosts(t)
	c := tcp.NewConn(tcp.DefaultConfig(), tcp.NewReno{}, star.Hosts[0], star.Hosts[1], 2)
	_ = s
	// Observe directly with a synthetic ECE at the floor: fresh sender has
	// cwnd = 2 = MinCwnd.
	p.Observe(c.Sender, true)
	if p.ECEAtMinFrac() != 1 {
		t.Errorf("ECEAtMinFrac = %v, want 1", p.ECEAtMinFrac())
	}
	if p.Hist().Count(2) != 1 {
		t.Errorf("bin 2 count = %d", p.Hist().Count(2))
	}
}

func TestQueueSamplerInterval(t *testing.T) {
	s := sim.NewScheduler()
	star := netsim.NewStar(s, 2, netsim.DefaultTopologyConfig())
	port := star.Switch.RouteTo(star.Hosts[1].ID())
	q := NewQueueSampler(s, port, 100*sim.Microsecond)
	q.Start()
	q.Start() // idempotent
	s.After(1050*sim.Microsecond, func() { q.Stop() })
	s.Run()
	n := len(q.Samples())
	// Samples at t=0, 100us, ..., 1000us -> 11.
	if n != 11 {
		t.Errorf("samples = %d, want 11", n)
	}
	for i, smp := range q.Samples() {
		if want := sim.Time(i) * sim.Time(100*sim.Microsecond); smp.At != want {
			t.Errorf("sample %d at %v, want %v", i, smp.At, want)
		}
		if smp.Bytes != 0 {
			t.Errorf("idle queue sample = %d bytes", smp.Bytes)
		}
	}
}

func TestQueueSamplerObservesOccupancy(t *testing.T) {
	s := sim.NewScheduler()
	star := netsim.NewStar(s, 3, netsim.DefaultTopologyConfig())
	port := star.Switch.RouteTo(star.Hosts[2].ID())
	q := NewQueueSampler(s, port, 10*sim.Microsecond)
	q.Start()
	// Two hosts blast data at host2's switch port so a queue builds.
	for i, h := range star.Hosts[:2] {
		cfg := tcp.DefaultConfig()
		cfg.InitialCwnd = 30
		cfg.MaxCwnd = 64
		c := tcp.NewConn(cfg, tcp.NewReno{}, h, star.Hosts[2], packet.FlowID(i+1))
		c.Sender.Send(60 * packet.MSS)
	}
	s.RunUntil(sim.Time(5 * sim.Millisecond))
	q.Stop()
	max := 0
	for _, v := range q.Samples() {
		if v.Bytes > max {
			max = v.Bytes
		}
	}
	if max == 0 {
		t.Error("sampler never observed a non-empty queue")
	}
	cdf := q.CDF()
	if cdf.Len() != len(q.Samples()) {
		t.Error("CDF sample count mismatch")
	}
	if got := cdf.At(float64(max)); got != 1 {
		t.Errorf("CDF at max = %v", got)
	}
	vals := q.Values()
	if len(vals) != len(q.Samples()) {
		t.Error("Values length mismatch")
	}
}

func TestQueueSamplerValidation(t *testing.T) {
	s := sim.NewScheduler()
	star := netsim.NewStar(s, 2, netsim.DefaultTopologyConfig())
	port := star.Switch.RouteTo(star.Hosts[1].ID())
	defer func() {
		if recover() == nil {
			t.Error("zero interval did not panic")
		}
	}()
	NewQueueSampler(s, port, 0)
}

func TestQueueSamplerStopBeforeStart(t *testing.T) {
	s := sim.NewScheduler()
	star := netsim.NewStar(s, 2, netsim.DefaultTopologyConfig())
	port := star.Switch.RouteTo(star.Hosts[1].ID())
	q := NewQueueSampler(s, port, sim.Microsecond)
	q.Stop() // must not panic
	if len(q.Samples()) != 0 {
		t.Error("samples without start")
	}
}

// TestQueueSamplerBlocks drives the sampler across several storage blocks:
// every sample sits on its tick, Samples is cached until the next tick and
// then grows, and a Stop→Start resumes at the new phase, appending.
func TestQueueSamplerBlocks(t *testing.T) {
	s := sim.NewScheduler()
	star := netsim.NewStar(s, 2, netsim.DefaultTopologyConfig())
	port := star.Switch.RouteTo(star.Hosts[1].ID())
	const iv = 10 * sim.Microsecond
	t0 := sim.Time(3 * sim.Microsecond)
	tick := func(k int) sim.Time { return t0.Add(sim.Duration(k) * iv) }
	q := NewQueueSampler(s, port, iv)
	s.At(t0, q.Start)

	s.RunUntil(tick(sampleBlock - 1))
	mid := q.Samples()
	if len(mid) != sampleBlock {
		t.Fatalf("one block in: %d samples, want %d", len(mid), sampleBlock)
	}

	const n = 10_000
	s.RunUntil(tick(n - 1))
	all := q.Samples()
	if len(all) != n {
		t.Fatalf("%d samples, want %d", len(all), n)
	}
	for k, smp := range all {
		if smp.At != tick(k) || smp.Bytes != 0 {
			t.Fatalf("sample %d = %+v, want {At:%v Bytes:0}", k, smp, tick(k))
		}
	}
	if !slices.Equal(all[:len(mid)], mid) {
		t.Error("the samples taken mid-run changed")
	}
	if again := q.Samples(); !slices.Equal(again, all) || &again[0] != &all[0] {
		t.Error("a second Samples call without a tick did not return the cached slice")
	}

	q.Stop()
	restart := tick(n - 1).Add(25 * sim.Microsecond) // off the old phase
	s.At(restart, q.Start)
	s.At(restart, q.Start) // idempotent while running
	s.RunUntil(restart.Add(2 * iv))
	q.Stop()
	got := q.Samples()
	if len(got) != n+3 {
		t.Fatalf("after restart: %d samples, want %d", len(got), n+3)
	}
	if !slices.Equal(got[:n], all) {
		t.Error("restart rewrote earlier samples")
	}
	for k, smp := range got[n:] {
		if want := restart.Add(sim.Duration(k) * iv); smp.At != want {
			t.Errorf("restarted sample %d at %v, want %v", k, smp.At, want)
		}
	}
	if vals := q.Values(); len(vals) != len(got) {
		t.Errorf("Values has %d entries, want %d", len(vals), len(got))
	}
}

// TestQueueSamplerAllocBudget pins the sampler's cost at one allocation per
// storage block: its timer re-arms without a closure and a filled block is
// never regrown.
func TestQueueSamplerAllocBudget(t *testing.T) {
	s := sim.NewScheduler()
	star := netsim.NewStar(s, 2, netsim.DefaultTopologyConfig())
	port := star.Switch.RouteTo(star.Hosts[1].ID())
	q := NewQueueSampler(s, port, sim.Microsecond)
	q.Start()
	const blocks = 3
	run := func() { s.RunFor(blocks * sampleBlock * sim.Microsecond) }
	// The slice holding the blocks regrows now and then: a small constant.
	const budget = blocks + 2
	if got := testing.AllocsPerRun(1, run); got > budget {
		t.Fatalf("%d ticks allocate %.0f times, want at most %d", blocks*sampleBlock, got, budget)
	}
}
