package workload

import (
	"runtime"
	"testing"

	"dctcpplus/internal/netsim"
	"dctcpplus/internal/sim"
)

// TestServiceJitterBoundsDelay verifies the uniform jitter keeps response
// starts within [0, jitter) of the request arrival.
func TestServiceJitterBoundsDelay(t *testing.T) {
	sched := sim.NewScheduler()
	tt := netsim.NewTwoTier(sched, 3, 3, netsim.DefaultTopologyConfig())
	const jitter = 2 * sim.Millisecond
	in := NewIncast(sched, tt, IncastConfig{
		Flows:         9,
		BytesPerFlow:  1000,
		Rounds:        1,
		ServiceJitter: jitter,
		Seed:          6,
		Factory:       dctcpFactory(200 * sim.Millisecond),
	})
	in.OnFinished = sched.Halt
	in.Start()
	sched.RunUntil(sim.Time(10 * sim.Second))
	res := in.Results()
	if len(res) != 1 {
		t.Fatal("round incomplete")
	}
	// Request propagation (~66us) + jitter (<2ms) + 1000B transfer (~70us)
	// bounds the FCT well under 3ms.
	if res[0].FCT > 3*sim.Millisecond {
		t.Errorf("FCT = %v, exceeds jitter bound", res[0].FCT)
	}
	if res[0].FCT < 100*sim.Microsecond {
		t.Errorf("FCT = %v, implausibly fast", res[0].FCT)
	}
}

// TestIncastDeterministicWithJitter: identical configs (same seed) yield
// identical round traces even with jitter enabled.
func TestIncastDeterministicWithJitter(t *testing.T) {
	run := func() []RoundResult {
		sched := sim.NewScheduler()
		tt := netsim.NewTwoTier(sched, 3, 3, netsim.DefaultTopologyConfig())
		in := NewIncast(sched, tt, IncastConfig{
			Flows:         12,
			BytesPerFlow:  20 << 10,
			Rounds:        4,
			ServiceJitter: 2 * sim.Millisecond,
			Seed:          42,
			Factory:       plusFactory(200 * sim.Millisecond),
		})
		in.OnFinished = sched.Halt
		in.Start()
		sched.RunUntil(sim.Time(60 * sim.Second))
		return in.Results()
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 4 {
		t.Fatalf("rounds %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].FCT != b[i].FCT || a[i].Start != b[i].Start {
			t.Errorf("round %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestIncastRoundAllocBudget pins the per-round allocation of the delayed
// response path: responses are scheduled with a callback bound once per
// workload and the sender as the event's argument, so a round costs a
// handful of allocations (its result record), not one closure per flow.
func TestIncastRoundAllocBudget(t *testing.T) {
	const flows = 200
	mallocs := func(rounds int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runIncast(t, IncastConfig{
			Flows:         flows,
			BytesPerFlow:  2000,
			Rounds:        rounds,
			ServiceJitter: 20 * sim.Microsecond,
			Seed:          3,
			Factory:       plusFactory(10 * sim.Millisecond),
		})
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	const short, long = 4, 20
	// Signed: with no per-round table left, runtime noise can make the
	// longer run the one that allocates less.
	perRound := (float64(mallocs(long)) - float64(mallocs(short))) / (long - short)
	if perRound >= flows/2 {
		t.Errorf("%.0f allocations per extra round of %d flows, want well under one per flow", perRound, flows)
	}
}
