package workload

import (
	"testing"

	"dctcpplus/internal/core"
	"dctcpplus/internal/dctcp"
	"dctcpplus/internal/netsim"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/tcp"
)

// factories for the three protocols under test; the DCTCP-family ones
// recycle a retiring module, as exp's protocol factories do.

func renoFactory(rtoMin sim.Duration) FlowFactory {
	return func(i int, _ tcp.CongestionControl) (tcp.Config, tcp.CongestionControl) {
		cfg := tcp.DefaultConfig()
		cfg.RTOMin = rtoMin
		cfg.Seed = uint64(i) + 1
		return cfg, tcp.NewReno{}
	}
}

func dctcpFactory(rtoMin sim.Duration) FlowFactory {
	return func(i int, old tcp.CongestionControl) (tcp.Config, tcp.CongestionControl) {
		cfg := dctcp.Config()
		cfg.RTOMin = rtoMin
		cfg.Seed = uint64(i) + 1
		return cfg, dctcp.Recycle(old, dctcp.DefaultGain)
	}
}

func plusFactory(rtoMin sim.Duration) FlowFactory {
	return func(i int, old tcp.CongestionControl) (tcp.Config, tcp.CongestionControl) {
		cfg := core.SenderConfig()
		cfg.RTOMin = rtoMin
		cfg.Seed = uint64(i) + 1
		return cfg, core.Recycle(old, dctcp.Recycle(core.Unwrap(old), dctcp.DefaultGain), core.DefaultConfig())
	}
}

func runIncast(t *testing.T, cfg IncastConfig) *Incast {
	t.Helper()
	in, _ := runPooledIncast(t, cfg)
	return in
}

// runPooledIncast runs the incast the way internal/exp does, with the
// packet pool on, so every harness-driven test also exercises the
// mint/recycle path (and, under -tags checkdebug, its poison tripwire).
func runPooledIncast(t *testing.T, cfg IncastConfig) (*Incast, *packet.Pool) {
	t.Helper()
	sched := sim.NewScheduler()
	tt := netsim.NewTwoTier(sched, 3, 3, netsim.DefaultTopologyConfig())
	pool := tt.EnablePacketPool()
	in := NewIncast(sched, tt, cfg)
	in.OnFinished = sched.Halt
	in.Start()
	sched.RunUntil(sim.Time(10 * 60 * sim.Second))
	if !in.Finished() {
		t.Fatalf("incast did not finish: %d/%d rounds", len(in.Results()), cfg.Rounds)
	}
	return in, pool
}

func TestIncastSmallNCompletes(t *testing.T) {
	in := runIncast(t, IncastConfig{
		Flows:        4,
		BytesPerFlow: (1 << 20) / 4,
		Rounds:       5,
		Factory:      dctcpFactory(200 * sim.Millisecond),
	})
	res := in.Results()
	if len(res) != 5 {
		t.Fatalf("rounds = %d", len(res))
	}
	for i, r := range res {
		if r.Bytes != 1<<20 {
			t.Errorf("round %d bytes = %d", i, r.Bytes)
		}
		if r.FCT <= 0 {
			t.Errorf("round %d FCT = %v", i, r.FCT)
		}
		// 1MB at 1Gbps is >= 8ms; with small N and DCTCP there should be no
		// timeouts, so FCT stays well under 100ms.
		if r.FCT > 100*sim.Millisecond {
			t.Errorf("round %d FCT = %v, suspiciously slow", i, r.FCT)
		}
		if g := r.GoodputMbps(); g < 100 || g > 1000 {
			t.Errorf("round %d goodput = %.0f Mbps", i, g)
		}
	}
}

func TestIncastRoundsAreSequential(t *testing.T) {
	in := runIncast(t, IncastConfig{
		Flows:        2,
		BytesPerFlow: 64 << 10,
		Rounds:       4,
		Factory:      renoFactory(200 * sim.Millisecond),
	})
	res := in.Results()
	for i := 1; i < len(res); i++ {
		if res[i].Start < res[i-1].Start.Add(res[i-1].FCT) {
			t.Errorf("round %d started before round %d finished", i, i-1)
		}
	}
}

func TestIncastPerFlowBytesConserved(t *testing.T) {
	const per = 100 << 10
	in := runIncast(t, IncastConfig{
		Flows:        6,
		BytesPerFlow: per,
		Rounds:       3,
		Factory:      dctcpFactory(200 * sim.Millisecond),
	})
	for i, c := range in.Conns() {
		want := int64(per * 3)
		if got := c.Receiver.Stats().DeliveredByte; got != want {
			t.Errorf("flow %d delivered %d, want %d", i, got, want)
		}
		if got := c.Sender.TotalBytes(); got != want {
			t.Errorf("flow %d sent total %d, want %d", i, got, want)
		}
	}
}

func TestIncastManyFlowsRenoSeesTimeouts(t *testing.T) {
	// 48 plain-TCP flows squeezing 1MB through a 128KB-buffer bottleneck:
	// the classic incast collapse must manifest as RTOs.
	in := runIncast(t, IncastConfig{
		Flows:        48,
		BytesPerFlow: (1 << 20) / 48,
		Rounds:       3,
		Factory:      renoFactory(10 * sim.Millisecond),
	})
	var timeouts int64
	for _, c := range in.Conns() {
		timeouts += c.Sender.Stats().Timeouts
	}
	if timeouts == 0 {
		t.Error("expected incast timeouts with 48 plain TCP flows")
	}
	// Round flags must reflect them.
	flagged := false
	for _, r := range in.Results() {
		for _, f := range r.Flows {
			if f.Timeout {
				flagged = true
			}
		}
	}
	if !flagged {
		t.Error("timeout round flags never set")
	}
}

func TestIncastDCTCPPlusAvoidsTimeouts(t *testing.T) {
	// The same pressure under DCTCP+ converges to timeout-free rounds —
	// the headline claim of the paper. The first rounds may overflow
	// (§VII, Fig. 14); steady state must be clean.
	in := runIncast(t, IncastConfig{
		Flows:         48,
		BytesPerFlow:  (1 << 20) / 48,
		Rounds:        12,
		Factory:       plusFactory(200 * sim.Millisecond),
		ServiceJitter: 2 * sim.Millisecond,
		Seed:          7,
	})
	res := in.Results()
	for i := 6; i < len(res); i++ {
		if res[i].FCT > 60*sim.Millisecond {
			t.Errorf("round %d FCT = %v, want << timeout scale after convergence", i, res[i].FCT)
		}
		for f, fr := range res[i].Flows {
			if fr.Timeout {
				t.Errorf("round %d flow %d timed out after convergence", i, f)
			}
		}
	}
}

func TestIncastValidation(t *testing.T) {
	sched := sim.NewScheduler()
	tt := netsim.NewTwoTier(sched, 1, 1, netsim.DefaultTopologyConfig())
	bad := []IncastConfig{
		{Flows: 0, BytesPerFlow: 1, Rounds: 1, Factory: renoFactory(time200())},
		{Flows: 1, BytesPerFlow: 0, Rounds: 1, Factory: renoFactory(time200())},
		{Flows: 1, BytesPerFlow: 1, Rounds: 0, Factory: renoFactory(time200())},
		{Flows: 1, BytesPerFlow: 1, Rounds: 1, Factory: nil},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad config %d did not panic", i)
				}
			}()
			NewIncast(sched, tt, cfg)
		}()
	}
}

func time200() sim.Duration { return 200 * sim.Millisecond }

func TestLongFlowChunks(t *testing.T) {
	sched := sim.NewScheduler()
	tt := netsim.NewTwoTier(sched, 3, 3, netsim.DefaultTopologyConfig())
	cfg, cc := dctcpFactory(200*sim.Millisecond)(0, nil)
	lf := NewLongFlow(sched, tt.Workers[0], tt.Aggregator, 500, cfg, cc, 1<<20)
	lf.Start()
	lf.Start() // idempotent
	sched.RunUntil(sim.Time(200 * sim.Millisecond))
	lf.Stop()
	sched.RunUntil(sim.Time(400 * sim.Millisecond))

	if len(lf.ChunkThroughputMbps()) < 3 {
		t.Fatalf("chunks completed = %d, want several in 200ms", len(lf.ChunkThroughputMbps()))
	}
	// A lone 1Gbps flow should push most of the line rate.
	if m := lf.MeanThroughputMbps(); m < 500 || m > 1000 {
		t.Errorf("mean throughput = %.0f Mbps", m)
	}
	if lf.TotalBytes() < int64(len(lf.ChunkThroughputMbps()))<<20 {
		t.Error("TotalBytes inconsistent with chunk count")
	}
	if lf.Conn() == nil {
		t.Error("nil conn")
	}
}

func TestLongFlowValidation(t *testing.T) {
	sched := sim.NewScheduler()
	tt := netsim.NewTwoTier(sched, 1, 1, netsim.DefaultTopologyConfig())
	cfg, cc := renoFactory(time200())(0, nil)
	defer func() {
		if recover() == nil {
			t.Error("zero chunk did not panic")
		}
	}()
	NewLongFlow(sched, tt.Workers[0], tt.Aggregator, 1, cfg, cc, 0)
}

func TestLongFlowEmptyMean(t *testing.T) {
	sched := sim.NewScheduler()
	tt := netsim.NewTwoTier(sched, 1, 1, netsim.DefaultTopologyConfig())
	cfg, cc := renoFactory(time200())(0, nil)
	lf := NewLongFlow(sched, tt.Workers[0], tt.Aggregator, 1, cfg, cc, 1<<20)
	if lf.MeanThroughputMbps() != 0 {
		t.Error("mean of no chunks should be 0")
	}
}

// requestRetryFixture runs a 2-flow incast whose round-0 requests are
// destroyed: the aggregator's uplink is blackholed at request-issue time
// and restored 2ms later. Requests are bare control packets with no
// transport recovery, so only the workload-level retry can save the round.
func requestRetryFixture(t *testing.T, retry sim.Duration) *Incast {
	t.Helper()
	sched := sim.NewScheduler()
	tt := netsim.NewTwoTier(sched, 3, 3, netsim.DefaultTopologyConfig())
	in := NewIncast(sched, tt, IncastConfig{
		Flows:        2,
		BytesPerFlow: 32 << 10,
		Rounds:       2,
		Factory:      dctcpFactory(10 * sim.Millisecond),
		RequestRetry: retry,
	})
	tt.Aggregator.Uplink().Link().SetDown(true)
	sched.After(2*sim.Millisecond, func() { tt.Aggregator.Uplink().Link().SetDown(false) })
	in.OnFinished = sched.Halt
	in.Start()
	sched.RunUntil(sim.Time(60 * sim.Second))
	return in
}

// TestRequestRetryRecoversDestroyedRequests pins the workload-level request
// recovery: with RequestRetry set, a round whose requests were all
// destroyed in flight is re-issued and the run completes; without it, the
// barrier hangs forever — the regression that froze fault-injected runs.
func TestRequestRetryRecoversDestroyedRequests(t *testing.T) {
	if in := requestRetryFixture(t, 0); in.Finished() {
		t.Fatal("run finished with requests destroyed and retries disabled; fixture no longer exercises the hang")
	}
	in := requestRetryFixture(t, 5*sim.Millisecond)
	if !in.Finished() {
		t.Fatal("run hung despite request retries")
	}
	if got := len(in.Results()); got != 2 {
		t.Fatalf("rounds completed = %d, want 2", got)
	}
	for i, r := range in.Results() {
		if r.Bytes != 64<<10 {
			t.Errorf("round %d bytes = %d, want %d", i, r.Bytes, 64<<10)
		}
	}
}

// TestDuplicateRequestServedOnce pins the retry's idempotence: a duplicate
// request for a round already being served must not re-trigger the
// response, or retries would double the round's bytes and trip the
// received-bytes invariant.
func TestDuplicateRequestServedOnce(t *testing.T) {
	sched := sim.NewScheduler()
	tt := netsim.NewTwoTier(sched, 3, 3, netsim.DefaultTopologyConfig())
	in := NewIncast(sched, tt, IncastConfig{
		Flows:        1,
		BytesPerFlow: 8 << 10,
		Rounds:       1,
		Factory:      dctcpFactory(10 * sim.Millisecond),
		// Retry far faster than the response completes, guaranteeing
		// duplicate requests land on a worker mid-service.
		RequestRetry: 10 * sim.Microsecond,
	})
	in.OnFinished = sched.Halt
	in.Start()
	sched.RunUntil(sim.Time(60 * sim.Second))
	if !in.Finished() {
		t.Fatal("incast did not finish")
	}
	// The received-bytes invariant (check.AtMost in onData) would have
	// panicked on a double-served request; finishing with the exact byte
	// count is the positive half.
	if got := in.Results()[0].Bytes; got != 8<<10 {
		t.Fatalf("round bytes = %d, want %d", got, 8<<10)
	}
}
