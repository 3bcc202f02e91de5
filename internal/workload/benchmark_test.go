package workload

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"dctcpplus/internal/netsim"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
)

func runBenchmark(t *testing.T, cfg BenchmarkConfig) *Benchmark {
	t.Helper()
	b, _ := runPooledBenchmark(t, cfg)
	return b
}

// runPooledBenchmark is runBenchmark returning the packet pool the run
// used (see runPooledIncast).
func runPooledBenchmark(t *testing.T, cfg BenchmarkConfig) (*Benchmark, *packet.Pool) {
	t.Helper()
	sched := sim.NewScheduler()
	tt := netsim.NewTwoTier(sched, 3, 3, netsim.DefaultTopologyConfig())
	pool := tt.EnablePacketPool()
	b := NewBenchmark(sched, tt, cfg)
	b.OnFinished = sched.Halt
	b.Start()
	sched.RunUntil(sim.Time(30 * 60 * sim.Second))
	if !b.Finished() {
		t.Fatalf("benchmark incomplete: %d/%d queries, %d/%d background",
			len(b.QueryResults()), cfg.Queries, len(b.BackgroundResults()), cfg.BackgroundFlows)
	}
	return b, pool
}

func smallBenchCfg() BenchmarkConfig {
	cfg := DefaultBenchmarkConfig()
	cfg.Queries = 40
	cfg.BackgroundFlows = 40
	cfg.BackgroundMaxBytes = 1 << 20
	cfg.Factory = dctcpFactory(10 * sim.Millisecond)
	cfg.Seed = 3
	return cfg
}

func TestBenchmarkCompletes(t *testing.T) {
	b := runBenchmark(t, smallBenchCfg())
	if len(b.QueryResults()) != 40 || len(b.BackgroundResults()) != 40 {
		t.Fatalf("results: %d queries, %d background",
			len(b.QueryResults()), len(b.BackgroundResults()))
	}
	for i, q := range b.QueryResults() {
		if q.FCT <= 0 {
			t.Errorf("query %d FCT = %v", i, q.FCT)
		}
		// A 9x2KB fan-in on an idle-ish network takes well under 10ms
		// unless a timeout struck; with DCTCP and RTOmin=10ms even a
		// timeout keeps it under ~50ms.
		if q.FCT > 100*sim.Millisecond {
			t.Errorf("query %d FCT = %v, suspiciously slow", i, q.FCT)
		}
	}
	for i, f := range b.BackgroundResults() {
		if f.Bytes < (10 << 10) {
			t.Errorf("background %d size = %d below min", i, f.Bytes)
		}
		if f.FCT <= 0 {
			t.Errorf("background %d FCT = %v", i, f.FCT)
		}
	}
}

func TestBenchmarkDeterministicGivenSeed(t *testing.T) {
	a := runBenchmark(t, smallBenchCfg())
	b := runBenchmark(t, smallBenchCfg())
	qa, qb := a.QueryResults(), b.QueryResults()
	if len(qa) != len(qb) {
		t.Fatal("different query counts")
	}
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatalf("query %d differs: %+v vs %+v", i, qa[i], qb[i])
		}
	}
}

func TestBenchmarkSeedChangesOutcome(t *testing.T) {
	cfg := smallBenchCfg()
	a := runBenchmark(t, cfg)
	cfg.Seed = 4
	b := runBenchmark(t, cfg)
	same := true
	for i := range a.QueryResults() {
		if a.QueryResults()[i] != b.QueryResults()[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical query traces")
	}
}

func TestBenchmarkHeavyTailSizes(t *testing.T) {
	cfg := smallBenchCfg()
	cfg.Queries = 0
	cfg.BackgroundFlows = 300
	cfg.BackgroundMeanGap = 2 * sim.Millisecond
	b := runBenchmark(t, cfg)
	small, large := 0, 0
	for _, f := range b.BackgroundResults() {
		if f.Bytes < 100<<10 {
			small++
		}
		if f.Bytes > 500<<10 {
			large++
		}
	}
	if small == 0 || large == 0 {
		t.Errorf("size distribution not heavy-tailed: %d small, %d large", small, large)
	}
	if small < large {
		t.Errorf("expected many more small flows than large: %d vs %d", small, large)
	}
}

func TestBenchmarkShortMessages(t *testing.T) {
	cfg := smallBenchCfg()
	cfg.Queries = 0
	cfg.BackgroundFlows = 0
	cfg.ShortFlows = 50
	b := runBenchmark(t, cfg)
	if len(b.ShortResults()) != 50 {
		t.Fatalf("short = %d", len(b.ShortResults()))
	}
	for i, f := range b.ShortResults() {
		if f.Bytes < cfg.ShortMinBytes || f.Bytes > cfg.ShortMaxBytes {
			t.Errorf("short %d size %d outside [%d, %d]", i, f.Bytes, cfg.ShortMinBytes, cfg.ShortMaxBytes)
		}
		if f.FCT <= 0 {
			t.Errorf("short %d FCT %v", i, f.FCT)
		}
	}
}

func TestBenchmarkAllThreeClasses(t *testing.T) {
	cfg := smallBenchCfg()
	cfg.Queries = 20
	cfg.ShortFlows = 20
	cfg.BackgroundFlows = 20
	b := runBenchmark(t, cfg)
	if len(b.QueryResults()) != 20 || len(b.ShortResults()) != 20 || len(b.BackgroundResults()) != 20 {
		t.Fatalf("classes: %d/%d/%d", len(b.QueryResults()), len(b.ShortResults()), len(b.BackgroundResults()))
	}
}

func TestBenchmarkShortValidation(t *testing.T) {
	sched := sim.NewScheduler()
	tt := netsim.NewTwoTier(sched, 1, 1, netsim.DefaultTopologyConfig())
	cfg := smallBenchCfg()
	cfg.ShortFlows = 5
	cfg.ShortMinBytes = 0
	defer func() {
		if recover() == nil {
			t.Error("bad short config did not panic")
		}
	}()
	NewBenchmark(sched, tt, cfg)
}

func TestBenchmarkQueriesOnly(t *testing.T) {
	cfg := smallBenchCfg()
	cfg.BackgroundFlows = 0
	b := runBenchmark(t, cfg)
	if len(b.QueryResults()) != cfg.Queries {
		t.Fatal("missing queries")
	}
}

func TestBenchmarkValidation(t *testing.T) {
	sched := sim.NewScheduler()
	tt := netsim.NewTwoTier(sched, 1, 1, netsim.DefaultTopologyConfig())
	bad := []func(*BenchmarkConfig){
		func(c *BenchmarkConfig) { c.Queries, c.ShortFlows, c.BackgroundFlows = 0, 0, 0 },
		func(c *BenchmarkConfig) { c.Queries = -1 },
		func(c *BenchmarkConfig) { c.QueryResponseBytes = 0 },
		func(c *BenchmarkConfig) { c.QueryMeanGap = 0 },
		func(c *BenchmarkConfig) { c.BackgroundMinBytes = 0 },
		func(c *BenchmarkConfig) { c.BackgroundMaxBytes = c.BackgroundMinBytes - 1 },
		func(c *BenchmarkConfig) { c.BackgroundAlpha = 0 },
		func(c *BenchmarkConfig) { c.Factory = nil },
	}
	for i, mut := range bad {
		cfg := smallBenchCfg()
		mut(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad config %d did not panic", i)
				}
			}()
			NewBenchmark(sched, tt, cfg)
		}()
	}
}

// startPerArrival is Start with every arrival its own At call, drawn and
// scheduled class by class: the reference the streams must reproduce.
func startPerArrival(b *Benchmark) {
	issueQuery, issueShort, issueBackground := b.issueQuery, b.issueShort, b.issueBackground
	var t sim.Time
	for i := 0; i < b.cfg.Queries; i++ {
		t = t.Add(b.rng.Exp(b.cfg.QueryMeanGap))
		b.sched.At(t, issueQuery)
	}
	t = 0
	for i := 0; i < b.cfg.ShortFlows; i++ {
		t = t.Add(b.rng.Exp(b.cfg.ShortMeanGap))
		b.sched.At(t, issueShort)
	}
	t = 0
	for i := 0; i < b.cfg.BackgroundFlows; i++ {
		t = t.Add(b.rng.Exp(b.cfg.BackgroundMeanGap))
		b.sched.At(t, issueBackground)
	}
}

// TestMixStreamsEqualPerArrivalEvents: the mix with one arrival stream per
// class must run exactly as with one queued event per arrival — every class's
// results, the RTO and retransmission totals, the event count and the final
// clock — for DCTCP and DCTCP+, each under two seeds.
func TestMixStreamsEqualPerArrivalEvents(t *testing.T) {
	type outcome struct {
		queries           []QueryResult
		shorts, bg        []FlowResult
		timeouts, retrans int64
		fired             uint64
		end               sim.Time
	}
	run := func(cfg BenchmarkConfig, start func(*Benchmark)) outcome {
		sched, b := newChurnBenchmark(cfg)
		start(b)
		sched.RunUntil(sim.Time(60 * sim.Second))
		if !b.Finished() {
			t.Fatalf("seed %d: mix incomplete", cfg.Seed)
		}
		return outcome{b.QueryResults(), b.ShortResults(), b.BackgroundResults(),
			b.TotalTimeouts(), b.TotalRetransmissions(), sched.Fired(), sched.Now()}
	}
	protocols := []struct {
		name    string
		factory FlowFactory
	}{
		{"dctcp", dctcpFactory(10 * sim.Millisecond)},
		{"dctcp+", plusFactory(10 * sim.Millisecond)},
	}
	for _, p := range protocols {
		for _, seed := range []uint64{5, 6} {
			cfg := churnCfg()
			cfg.Factory, cfg.Seed = p.factory, seed
			streams := run(cfg, (*Benchmark).Start)
			events := run(cfg, startPerArrival)
			if !reflect.DeepEqual(streams, events) {
				t.Errorf("%s seed %d: streams differ from per-arrival events:\nstreams %+v\nevents  %+v", p.name, seed, streams, events)
			}
			if streams.timeouts == 0 {
				t.Errorf("%s seed %d: no flow timed out; the mix is too quiet to compare", p.name, seed)
			}
		}
	}
}

// TestBenchmarkStartAllocBudget: Start's allocations do not grow with the
// arrival count — per class one instant slice, one stream record and the
// method value of its issue callback, nine in all — and it leaves at most
// one queued event per class. (Per-arrival At calls cost one 64-event slab
// per 64 arrivals and a far heap that many slots deep.) Each count is the
// least of five Starts on fresh benchmarks.
func TestBenchmarkStartAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	start := func(queries, background, short int) (mallocs uint64, pending int) {
		cfg := churnCfg()
		cfg.Queries, cfg.BackgroundFlows, cfg.ShortFlows = queries, background, short
		sched, b := newChurnBenchmark(cfg)
		// Mint the scheduler's first event slab and grow both queues to three
		// slots outside the measurement: a run's scheduler keeps them.
		var warm [6]sim.Timer
		for i := range warm {
			warm[i].Init(sched, func() {})
			warm[i].ResetAt(sim.Time(i%2) * sim.Time(sim.Second))
		}
		for i := range warm {
			warm[i].Stop()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.Start()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, sched.Pending()
	}
	// The whole-process MemStats can count a stray allocation of the runtime
	// or of another goroutine. That only adds to a count, while one
	// allocation per arrival would show in every repetition, so the budget
	// reads the least of five measurements.
	least := func(queries, background, short int) (mallocs uint64, pending int) {
		mallocs = math.MaxUint64
		for i := 0; i < 5; i++ {
			m, p := start(queries, background, short)
			mallocs, pending = min(mallocs, m), max(pending, p)
		}
		return mallocs, pending
	}
	small, _ := least(10, 10, 3)
	large, pending := least(10000, 10000, 2500)
	t.Logf("Start: %d allocations, %d events queued", large, pending)
	if large != small || large > 9 {
		t.Errorf("Start allocates %d times for 22,500 arrivals and %d for 23, want the same count, at most 9", large, small)
	}
	if pending > 3 {
		t.Errorf("Start queued %d events, want at most 3 (one per class)", pending)
	}
}
