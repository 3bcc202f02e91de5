package workload

import (
	"reflect"
	"testing"

	"dctcpplus/internal/netsim"
	"dctcpplus/internal/sim"
)

// churnCfg is a mix small enough for a unit test and hot enough to matter:
// DCTCP+ (the one protocol that draws from the connection's random stream
// on the data path) at a query rate where fan-ins overlap the transfers.
func churnCfg() BenchmarkConfig {
	cfg := DefaultBenchmarkConfig()
	cfg.Queries, cfg.ShortFlows, cfg.BackgroundFlows = 150, 8, 30
	cfg.QueryMeanGap = 100 * sim.Microsecond
	cfg.BackgroundMaxBytes = 2 << 20
	cfg.Factory = plusFactory(10 * sim.Millisecond)
	cfg.Seed = 5
	return cfg
}

func newChurnBenchmark(cfg BenchmarkConfig) (*sim.Scheduler, *Benchmark) {
	sched := sim.NewScheduler()
	tt := netsim.NewTwoTier(sched, 3, 3, netsim.DefaultTopologyConfig())
	tt.EnablePacketPool()
	b := NewBenchmark(sched, tt, cfg)
	b.OnFinished = sched.Halt
	return sched, b
}

func freeListLen(b *Benchmark) int {
	n := 0
	for f := b.free; f != nil; f = f.next {
		n++
	}
	return n
}

// TestMixMatchesUnrecycled: recycling is host-time only. The same mix run
// with recycling defeated — the free list emptied after every event, so
// every flow is built fresh — must produce the same results, counters,
// event count and clock.
func TestMixMatchesUnrecycled(t *testing.T) {
	type outcome struct {
		queries           []QueryResult
		shorts, bg        []FlowResult
		timeouts, retrans int64
		fired             uint64
		end               sim.Time
	}
	// built is how many records the run ever constructed: at the end they
	// are all retired, bar the few whose last ACK is still in flight.
	run := func(recycle bool) (res outcome, built int) {
		sched, b := newChurnBenchmark(churnCfg())
		b.Start()
		for sched.Now() < sim.Time(60*sim.Second) && !b.Finished() && sched.Step() {
			if !recycle {
				b.free = nil
			}
		}
		if !b.Finished() {
			t.Fatalf("recycle=%v: mix incomplete", recycle)
		}
		return outcome{b.QueryResults(), b.ShortResults(), b.BackgroundResults(),
			b.TotalTimeouts(), b.TotalRetransmissions(), sched.Fired(), sched.Now()}, freeListLen(b)
	}
	recycled, built := run(true)
	fresh, parked := run(false)
	if !reflect.DeepEqual(recycled, fresh) {
		t.Errorf("recycled run differs from the unrecycled one:\nrecycled %+v\nfresh    %+v", recycled, fresh)
	}
	// The comparison means something only if one side mostly reused
	// connections, ones that had drawn random numbers and timed out, and the
	// other reused none.
	cfg := churnCfg()
	flows := cfg.Queries*9 + cfg.ShortFlows + cfg.BackgroundFlows
	if built == 0 || built > flows/2 || parked > 1 {
		t.Errorf("%d flows: the recycling run built %d records, the defeated one ended with %d parked", flows, built, parked)
	}
	if recycled.timeouts == 0 {
		t.Error("no flow timed out: the mix is too quiet to expose state leaking across a Reopen")
	}
}

// TestReopenEqualsFresh, for the flow record: a record popped off the free
// list must, outside its keep-list, equal one built from nothing.
func TestReopenEqualsFresh(t *testing.T) {
	sched, b := newChurnBenchmark(churnCfg())
	src, dst := b.tt.Workers[0], b.tt.Aggregator
	first := b.openFlow(src, dst, 3000)
	first.results, first.done = &b.bgResults, &b.bgDone
	first.conn.Sender.Send(3000)
	sched.Run()
	if b.free != first || first.got != 3000 {
		t.Fatalf("first life did not retire onto the free list: got %d bytes", first.got)
	}

	open := func() *mixFlow {
		b.nextFlow = 20000
		return b.openFlow(src, dst, 500)
	}
	b.free = nil
	twin := open()
	want := *twin
	twin.conn.Close()
	b.free = first
	f := open()
	if f != first {
		t.Fatal("openFlow did not take the retired record")
	}
	got := *f
	// The keep-list.
	for _, r := range []*mixFlow{&got, &want} {
		r.b, r.conn, r.onData, r.onComplete = nil, nil, nil, nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("outside the keep-list a recycled record differs from a fresh one:\nrecycled %+v\nfresh    %+v", got, want)
	}
	if f.b != b || f.conn == nil || f.conn.Sender.Flow() != 20000 ||
		f.conn.Receiver.OnData == nil || f.conn.Sender.OnComplete == nil {
		t.Error("recycled record lost its owner, connection or callbacks")
	}
}

// churnQueries runs n query transactions to completion, one at a time.
func churnQueries(sched *sim.Scheduler, b *Benchmark, n int) {
	for i := 0; i < n; i++ {
		b.issueQuery()
		sched.Run()
	}
}

// TestConnChurnAllocBudget pins the allocator's share of a query: once the
// free list holds a fan-in's worth of records, a whole transaction — nine
// connections opened, served and retired — allocates the congestion-control
// objects its factory returns and nothing else (the result append lands in
// capacity sized from the configured count).
func TestConnChurnAllocBudget(t *testing.T) {
	cfg := churnCfg()
	cfg.Queries = 1000
	sched, b := newChurnBenchmark(cfg)
	churnQueries(sched, b, 4)
	perCC := testing.AllocsPerRun(100, func() { cfg.Factory(1) })
	budget := float64(len(b.tt.Workers)) * perCC
	if got := testing.AllocsPerRun(50, func() { churnQueries(sched, b, 1) }); got > budget {
		t.Fatalf("one query transaction allocates %.1f times, want at most %.0f (%d flows x %.0f CC objects)",
			got, budget, len(b.tt.Workers), perCC)
	}
	if len(b.QueryResults()) != 4+51 {
		t.Fatalf("%d queries completed, want 55", len(b.QueryResults()))
	}
}

// BenchmarkConnChurn is one query transaction per iteration; its allocs/op
// column is the per-PR view of TestConnChurnAllocBudget.
func BenchmarkConnChurn(bm *testing.B) {
	cfg := churnCfg()
	cfg.Queries = bm.N + 4
	sched, b := newChurnBenchmark(cfg)
	churnQueries(sched, b, 4)
	bm.ReportAllocs()
	bm.ResetTimer()
	churnQueries(sched, b, bm.N)
}
