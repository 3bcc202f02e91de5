package workload

import (
	"reflect"
	"testing"

	"dctcpplus/internal/netsim"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/resetcheck"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/tcp"
	"dctcpplus/internal/telemetry"
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
// every flow is built fresh, congestion-control module included — must
// produce the same results, counters, event count and clock.
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
	// reopens counts the opens of a retired connection, recycledCC those
	// whose factory handed the retiring connection's module back.
	var reopens, recycledCC int
	run := func(recycle bool) (res outcome, built int) {
		cfg := churnCfg()
		factory := cfg.Factory
		reopens, recycledCC = 0, 0
		cfg.Factory = func(i int, old tcp.CongestionControl) (tcp.Config, tcp.CongestionControl) {
			c, cc := factory(i, old)
			if old != nil {
				reopens++
				if cc == old {
					recycledCC++
				}
			}
			return c, cc
		}
		sched, b := newChurnBenchmark(cfg)
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
	recycledReopens, recycledCCs := reopens, recycledCC
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
	if recycledCCs != recycledReopens || recycledReopens < flows/2 || reopens != 0 {
		t.Errorf("%d flows: %d of %d reopens recycled their module (want every one, of most flows); the defeated run reopened %d (want none)",
			flows, recycledCCs, recycledReopens, reopens)
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
// connections opened, served and retired — allocates nothing. Each reopen
// recycles the retired connection and its congestion-control modules (the
// factory re-parameterises them, Init resets them), and the result append
// lands in capacity sized from the configured count.
func TestConnChurnAllocBudget(t *testing.T) {
	cfg := churnCfg()
	cfg.Queries = 1000
	sched, b := newChurnBenchmark(cfg)
	churnQueries(sched, b, 4)
	if got := testing.AllocsPerRun(50, func() { churnQueries(sched, b, 1) }); got != 0 {
		t.Fatalf("one query transaction allocates %.1f times, want 0", got)
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

// incastKeeps is Incast.open's keep-list: wiring, the once-bound callbacks
// and every connection built so far, and the results' storage (emptied).
// The per-flow tables are reused too, but come out equal to fresh ones and
// are compared.
var incastKeeps = []string{"sched", "tt", "conns", "built", "onData", "respondFn", "requestFn", "results"}

// TestIncastReopenEqualsFresh: an incast that has lived — 60 flows with
// service jitter, request retries, telemetry and OnFinished attached, over a
// tree whose workers are mirrored — is closed, its scheduler and tree are
// reset, and it is reopened for 12 other flows under another seed. Outside
// the keep-list it must equal a NewIncast of that config on a fresh tree,
// and its second life must produce exactly the fresh one's rounds; a
// reopen that grows past every connection built so far builds the rest.
func TestIncastReopenEqualsFresh(t *testing.T) {
	first := IncastConfig{Flows: 60, BytesPerFlow: 32 << 10, Rounds: 4, Factory: plusFactory(10 * sim.Millisecond),
		ServiceJitter: 5 * sim.Microsecond, RequestRetry: 10 * sim.Millisecond, Seed: 3}
	second := IncastConfig{Flows: 12, BytesPerFlow: 30 << 10, Rounds: 3, Factory: plusFactory(10 * sim.Millisecond),
		ServiceJitter: 2 * sim.Millisecond, Seed: 4, FlowIDs: make([]packet.FlowID, 12)}
	for i := range second.FlowIDs {
		second.FlowIDs[i] = packet.FlowID(100 - i)
	}

	sched := sim.NewScheduler()
	tt := netsim.NewTwoTier(sched, 3, 3, netsim.DefaultTopologyConfig())
	tt.EnablePacketPool()
	for i, j := 0, len(tt.Workers)-1; i < j; i, j = i+1, j-1 {
		tt.Workers[i], tt.Workers[j] = tt.Workers[j], tt.Workers[i]
	}
	in := NewIncast(sched, tt, first)
	in.AttachTelemetry(telemetry.NewRegistry())
	in.OnFinished = sched.Halt
	in.Start()
	sched.RunUntil(sim.Time(10 * sim.Second))
	timeouts := int64(0)
	for _, c := range in.Conns() {
		timeouts += c.Sender.Stats().Timeouts
	}
	if !in.Finished() || timeouts == 0 {
		t.Fatalf("first life: finished=%v timeouts=%d, want a finished run with timeouts", in.Finished(), timeouts)
	}
	built := in.built
	in.Close()
	sched.Reset(tt.Reclaim)
	tt.Reset()
	in.Reopen(second)

	fsched := sim.NewScheduler()
	ftt := netsim.NewTwoTier(fsched, 3, 3, netsim.DefaultTopologyConfig())
	ftt.EnablePacketPool()
	fresh := NewIncast(fsched, ftt, second)
	// cfg is the argument itself, but holds the factory, a func, which
	// DeepEqual never equates: compare it apart, without the factory.
	resetcheck.Diff(t, in, fresh, append(incastKeeps, "cfg")...)
	gotCfg, wantCfg := in.cfg, fresh.cfg
	gotCfg.Factory, wantCfg.Factory = nil, nil
	if !reflect.DeepEqual(gotCfg, wantCfg) {
		t.Errorf("reopened cfg %+v, fresh %+v", gotCfg, wantCfg)
	}
	if len(in.Conns()) != 12 || len(in.built) != 60 || &in.built[0] != &built[0] || len(in.Results()) != 0 {
		t.Fatalf("reopened: %d conns of %d built (storage kept: %v), %d results; want 12 of the first life's 60, none",
			len(in.Conns()), len(in.built), &in.built[0] == &built[0], len(in.Results()))
	}
	for i, c := range in.Conns() {
		if c != built[i] || c.Sender.Flow() != second.FlowIDs[i] || c.Receiver.OnData == nil {
			t.Fatalf("flow %d: connection not reused, relabeled or re-hooked", i)
		}
	}

	run := func(s *sim.Scheduler, in *Incast) []RoundResult {
		in.OnFinished = s.Halt
		in.Start()
		s.RunUntil(sim.Time(10 * sim.Second))
		return in.Results()
	}
	if got, want := run(sched, in), run(fsched, fresh); !reflect.DeepEqual(got, want) || len(got) != 3 {
		t.Errorf("second life differs from a fresh incast:\nreopened %+v\nfresh    %+v", got, want)
	}

	// Growing past every connection built: the first 24 are reopened, the
	// rest built.
	in.Close()
	sched.Reset(tt.Reclaim)
	tt.Reset()
	third := first
	third.Flows = 70
	in.Reopen(third)
	if len(in.Conns()) != 70 || len(in.built) != 70 || in.Conns()[59] != built[59] {
		t.Fatalf("grown reopen: %d conns, %d built, want 70 with the first 60 reused", len(in.Conns()), len(in.built))
	}
}
