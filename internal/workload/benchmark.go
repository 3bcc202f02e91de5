package workload

import (
	"dctcpplus/internal/netsim"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/tcp"
)

// BenchmarkConfig parameterizes the production-cluster benchmark traffic of
// §VI-D: query traffic (small fan-in responses from every worker) mixed
// with heavy-tailed background flows, both arriving as Poisson processes.
// The paper generates 7,000 queries and 7,000 background flows following
// the inter-arrival and size distributions measured in the DCTCP paper's
// production cluster; we reproduce the statistical shape with seeded
// exponential arrivals and a bounded-Pareto size distribution.
type BenchmarkConfig struct {
	// Queries is the number of query transactions.
	Queries int
	// QueryResponseBytes is each worker's response size (2KB in §VI-D).
	QueryResponseBytes int64
	// QueryMeanGap is the mean inter-arrival time of queries.
	QueryMeanGap sim.Duration

	// ShortFlows is the number of short-message transfers (§VI-D's "short
	// messages": the 50KB-1MB coordination traffic of the production
	// cluster).
	ShortFlows int
	// ShortMeanGap is the mean inter-arrival time of short messages.
	ShortMeanGap sim.Duration
	// ShortMinBytes/ShortMaxBytes bound the uniform short-message size.
	ShortMinBytes int64
	ShortMaxBytes int64

	// BackgroundFlows is the number of background transfers.
	BackgroundFlows int
	// BackgroundMeanGap is the mean inter-arrival time of background flows.
	BackgroundMeanGap sim.Duration
	// Background size distribution: bounded Pareto [Min, Max] with shape
	// Alpha. The defaults skew small ("short messages") with a heavy tail
	// of multi-megabyte transfers, matching the cluster measurements the
	// paper references.
	BackgroundMinBytes int64
	BackgroundMaxBytes int64
	BackgroundAlpha    float64
	// BackgroundAggFrac is the probability that a short/background
	// transfer targets the aggregator (the busy node whose link the query
	// fan-ins also cross); the remainder go to random other workers. The
	// paper's production traffic concentrates on hot nodes — without this
	// concentration the query and background classes never contend.
	BackgroundAggFrac float64

	// Factory builds every flow's transport (queries and background).
	Factory FlowFactory
	// Seed drives arrival times, sizes and placements.
	Seed uint64
}

// DefaultBenchmarkConfig returns a scaled-down benchmark preset calibrated
// so the three traffic classes actually contend at the aggregator's link
// (~70-90%% utilization with heavy-tailed episodes): that is the §VI-D
// regime in which DCTCP queries start missing their fan-ins while DCTCP+
// holds them. The paper-scale run sets 7,000 queries and 7,000 background
// flows. All classes span comparable virtual time (counts are proportional
// to their rates).
func DefaultBenchmarkConfig() BenchmarkConfig {
	return BenchmarkConfig{
		Queries:            500,
		QueryResponseBytes: 2 << 10,
		QueryMeanGap:       1200 * sim.Microsecond,
		ShortFlows:         125,
		ShortMeanGap:       4800 * sim.Microsecond,
		ShortMinBytes:      50 << 10,
		ShortMaxBytes:      1 << 20,
		BackgroundFlows:    500,
		BackgroundMeanGap:  1200 * sim.Microsecond,
		BackgroundMinBytes: 10 << 10,
		BackgroundMaxBytes: 30 << 20,
		BackgroundAlpha:    1.05,
		BackgroundAggFrac:  0.8,
	}
}

func (c BenchmarkConfig) validate() {
	switch {
	case c.Queries < 0 || c.BackgroundFlows < 0 || c.ShortFlows < 0:
		panic("workload: negative benchmark counts")
	case c.Queries == 0 && c.BackgroundFlows == 0 && c.ShortFlows == 0:
		panic("workload: empty benchmark")
	case c.Queries > 0 && (c.QueryResponseBytes <= 0 || c.QueryMeanGap <= 0):
		panic("workload: invalid query parameters")
	case c.ShortFlows > 0 && (c.ShortMinBytes <= 0 ||
		c.ShortMaxBytes < c.ShortMinBytes || c.ShortMeanGap <= 0):
		panic("workload: invalid short-message parameters")
	case c.BackgroundFlows > 0 && (c.BackgroundMinBytes <= 0 ||
		c.BackgroundMaxBytes < c.BackgroundMinBytes || c.BackgroundAlpha <= 0 ||
		c.BackgroundMeanGap <= 0):
		panic("workload: invalid background parameters")
	case c.BackgroundAggFrac < 0 || c.BackgroundAggFrac > 1:
		panic("workload: BackgroundAggFrac out of [0,1]")
	case c.Factory == nil:
		panic("workload: nil FlowFactory")
	}
}

// QueryResult records one completed query transaction.
type QueryResult struct {
	Start sim.Time
	FCT   sim.Duration // request issue to last response byte across the fan-in
}

// FlowResult records one completed background flow.
type FlowResult struct {
	Start sim.Time
	Bytes int64
	FCT   sim.Duration
}

// Benchmark drives the §VI-D traffic mix over a two-tier topology. Every
// query response and every transfer is its own short-lived connection; the
// mix opens ~20 of them per query, so it keeps retired ones (mixFlow) on a
// free list and reopens them instead of allocating.
type Benchmark struct {
	sched *sim.Scheduler
	tt    *netsim.TwoTier
	cfg   BenchmarkConfig
	rng   *sim.RNG

	nextFlow packet.FlowID
	senders  map[packet.FlowID]*tcp.Sender
	free     *mixFlow // retired flow records, linked through mixFlow.next
	// queryLeft counts, per query in issue order, the responses not yet
	// fully delivered. A response flow refers to its query by index: the
	// countdown outlives any one of the query's flows.
	queryLeft []int

	queriesDone int
	shortDone   int
	bgDone      int

	queryResults []QueryResult
	shortResults []FlowResult
	bgResults    []FlowResult

	// Aggregated sender stats, folded in as each flow retires.
	timeouts int64
	retrans  int64

	// OnFinished fires when every query and background flow completed.
	OnFinished func()
}

// mixFlow is one connection of the mix with what its two callbacks need.
// It is (re)initialised only by Benchmark.openFlow, which resets every
// field by whole-struct assignment except the keep-list spelled out there.
type mixFlow struct {
	b    *Benchmark
	conn *tcp.Conn
	// Method values of delivered/retire, bound once when the record is
	// first built and re-attached to the connection on every open.
	onData     func(n int64)
	onComplete func(total int64)

	next *mixFlow // free-list link while retired

	flow  packet.FlowID
	start sim.Time
	want  int64 // bytes this flow carries
	got   int64 // bytes delivered in order so far
	// query is the index in b.queryLeft of the fan-in this response belongs
	// to, or -1 for a transfer, which records into results/done instead.
	query   int
	results *[]FlowResult
	done    *int
}

// NewBenchmark wires the benchmark onto the topology. Flow ids start at
// 10000 to stay clear of other workloads sharing the topology.
func NewBenchmark(sched *sim.Scheduler, tt *netsim.TwoTier, cfg BenchmarkConfig) *Benchmark {
	cfg.validate()
	b := &Benchmark{
		sched:        sched,
		tt:           tt,
		cfg:          cfg,
		rng:          sim.NewRNG(cfg.Seed),
		nextFlow:     10000,
		senders:      make(map[packet.FlowID]*tcp.Sender),
		queryLeft:    make([]int, 0, cfg.Queries),
		queryResults: make([]QueryResult, 0, cfg.Queries),
		shortResults: make([]FlowResult, 0, cfg.ShortFlows),
		bgResults:    make([]FlowResult, 0, cfg.BackgroundFlows),
	}
	for _, w := range tt.Workers {
		w.OnControl = b.onRequest
	}
	return b
}

// QueryResults returns the completed query transactions.
func (b *Benchmark) QueryResults() []QueryResult { return b.queryResults }

// ShortResults returns the completed short-message flows.
func (b *Benchmark) ShortResults() []FlowResult { return b.shortResults }

// BackgroundResults returns the completed background flows.
func (b *Benchmark) BackgroundResults() []FlowResult { return b.bgResults }

// TotalTimeouts returns the RTO count accumulated across retired flows.
func (b *Benchmark) TotalTimeouts() int64 { return b.timeouts }

// TotalRetransmissions returns the retransmitted-packet count across
// retired flows.
func (b *Benchmark) TotalRetransmissions() int64 { return b.retrans }

// Finished reports whether all traffic completed.
func (b *Benchmark) Finished() bool {
	return b.queriesDone == b.cfg.Queries &&
		b.shortDone == b.cfg.ShortFlows &&
		b.bgDone == b.cfg.BackgroundFlows
}

// Start draws every arrival instant — queries, then short messages, then
// background flows, so every later draw sees the same random stream — and
// hands each class to the scheduler as one stream: one queued event per
// class, not one per arrival. The caller then runs the scheduler.
func (b *Benchmark) Start() {
	b.sched.AtSorted(b.arrivals(b.cfg.Queries, b.cfg.QueryMeanGap), b.issueQuery)
	b.sched.AtSorted(b.arrivals(b.cfg.ShortFlows, b.cfg.ShortMeanGap), b.issueShort)
	b.sched.AtSorted(b.arrivals(b.cfg.BackgroundFlows, b.cfg.BackgroundMeanGap), b.issueBackground)
}

// arrivals draws n Poisson arrival instants with the given mean gap, counted
// from the epoch.
func (b *Benchmark) arrivals(n int, meanGap sim.Duration) []sim.Time {
	times := make([]sim.Time, n)
	var t sim.Time
	for i := range times {
		t = t.Add(b.rng.Exp(meanGap))
		times[i] = t
	}
	return times
}

// issueShort starts one short-message transfer: a uniform size in
// [ShortMinBytes, ShortMaxBytes] between a random worker pair.
func (b *Benchmark) issueShort() {
	size := b.cfg.ShortMinBytes
	if span := b.cfg.ShortMaxBytes - b.cfg.ShortMinBytes; span > 0 {
		size += b.rng.Int63n(span + 1)
	}
	b.issueTransfer(size, &b.shortResults, &b.shortDone)
}

// onRequest dispatches an arriving query request to its response sender.
func (b *Benchmark) onRequest(pkt *packet.Packet) {
	if snd, ok := b.senders[pkt.Flow]; ok {
		snd.Send(pkt.ReqBytes)
	}
}

// openFlow opens a connection from src to dst that will carry want bytes,
// under the next flow id (ids are never reused: see tcp.Conn), and attaches
// its record's callbacks. The record and its connection come off the free
// list when a retired one is there, and the factory is handed the retired
// connection's congestion-control module to recycle; either way they go
// through the same initialisers, so a recycled flow behaves as a fresh one.
func (b *Benchmark) openFlow(src, dst *netsim.Host, want int64) *mixFlow {
	flow := b.nextFlow
	b.nextFlow++
	f := b.free
	if f == nil {
		cfg, cc := b.cfg.Factory(int(flow), nil)
		f = &mixFlow{b: b, conn: tcp.NewConn(cfg, cc, src, dst, flow)}
		f.onData, f.onComplete = f.delivered, f.retire
	} else {
		b.free = f.next
		cfg, cc := b.cfg.Factory(int(flow), f.conn.Sender.CC())
		f.conn.Reopen(cfg, cc, src, dst, flow)
	}
	*f = mixFlow{
		flow:  flow,
		start: b.sched.Now(),
		want:  want,
		query: -1,

		// The keep-list: owner, connection and the once-bound callbacks.
		b:          f.b,
		conn:       f.conn,
		onData:     f.onData,
		onComplete: f.onComplete,
	}
	f.conn.Receiver.OnData = f.onData
	f.conn.Sender.OnComplete = f.onComplete
	return f
}

// delivered is the flow's Receiver.OnData: when the last byte lands, the
// flow's result is recorded — for a query response, once the whole fan-in
// has landed.
func (f *mixFlow) delivered(n int64) {
	f.got += n
	if f.got != f.want {
		return
	}
	b := f.b
	now := b.sched.Now()
	if f.query < 0 {
		*f.results = append(*f.results, FlowResult{
			Start: f.start,
			Bytes: f.want,
			FCT:   now.Sub(f.start),
		})
		*f.done++
		b.maybeFinish()
		return
	}
	b.queryLeft[f.query]--
	if b.queryLeft[f.query] == 0 {
		// Every flow of a query starts at the instant it was issued.
		b.queryResults = append(b.queryResults, QueryResult{
			Start: f.start,
			FCT:   now.Sub(f.start),
		})
		b.queriesDone++
		b.maybeFinish()
	}
}

// retire is the flow's Sender.OnComplete: every byte is acknowledged, so
// the connection closes and the record goes on the free list.
func (f *mixFlow) retire(int64) {
	b := f.b
	st := f.conn.Sender.Stats()
	b.timeouts += st.Timeouts
	b.retrans += st.RetransPkts
	f.conn.Close()
	delete(b.senders, f.flow)
	f.next = b.free
	b.free = f
}

// issueQuery starts one partition/aggregate transaction: a connection from
// every worker, a 40-byte request to each, completion when the last
// response byte lands at the aggregator.
func (b *Benchmark) issueQuery() {
	start := b.sched.Now()
	query := len(b.queryLeft)
	b.queryLeft = append(b.queryLeft, len(b.tt.Workers))
	for _, w := range b.tt.Workers {
		f := b.openFlow(w, b.tt.Aggregator, b.cfg.QueryResponseBytes)
		f.query = query
		b.senders[f.flow] = f.conn.Sender

		pkt := b.tt.Aggregator.AllocPacket()
		pkt.Dst = w.ID()
		pkt.Flow = f.flow
		pkt.Flags = packet.FlagREQ
		pkt.ReqBytes = b.cfg.QueryResponseBytes
		pkt.SendTime = start
		b.tt.Aggregator.Send(pkt)
	}
}

// issueBackground starts one background transfer with a bounded-Pareto
// size.
func (b *Benchmark) issueBackground() {
	size := int64(b.rng.Pareto(float64(b.cfg.BackgroundMinBytes),
		float64(b.cfg.BackgroundMaxBytes), b.cfg.BackgroundAlpha))
	if size < b.cfg.BackgroundMinBytes {
		size = b.cfg.BackgroundMinBytes
	}
	b.issueTransfer(size, &b.bgResults, &b.bgDone)
}

// issueTransfer starts one point-to-point transfer between a random worker
// and a random other host (another worker or the aggregator), recording
// its completion into the given result set.
func (b *Benchmark) issueTransfer(size int64, results *[]FlowResult, done *int) {
	srcIdx := b.rng.Intn(len(b.tt.Workers))
	src := b.tt.Workers[srcIdx]
	dst := b.pickDst(srcIdx)

	f := b.openFlow(src, dst, size)
	f.results, f.done = results, done
	f.conn.Sender.Send(size)
}

// pickDst chooses a destination host distinct from worker srcIdx: the
// aggregator with probability BackgroundAggFrac, otherwise a uniform other
// worker.
func (b *Benchmark) pickDst(srcIdx int) *netsim.Host {
	if b.rng.Float64() < b.cfg.BackgroundAggFrac {
		return b.tt.Aggregator
	}
	others := len(b.tt.Workers) - 1
	if others == 0 {
		return b.tt.Aggregator
	}
	// Index into the workers with srcIdx skipped.
	i := b.rng.Intn(others)
	if i >= srcIdx {
		i++
	}
	return b.tt.Workers[i]
}

func (b *Benchmark) maybeFinish() {
	if b.Finished() && b.OnFinished != nil {
		b.OnFinished()
	}
}
