package main

import (
	"strconv"

	dcp "dctcpplus"
	"dctcpplus/internal/netsim"
	"dctcpplus/internal/oracle"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/stats"
	"dctcpplus/internal/tcp"
	"dctcpplus/internal/telemetry"
	"dctcpplus/internal/trace"
	"dctcpplus/internal/workload"
)

// A twin run re-assembles a workload from the layers' own constructors, in
// the order internal/exp does, so the benchmark can put a span around each
// phase and read each layer's counters (Scheduler.Fired, PortStats,
// SenderStats, packet.Pool) that the facade's result types do not carry.
// It is the traced counterpart of the facade run: the facade run is what
// users pay for and what the end-to-end metrics time; the twin says where
// that time goes. A twin is only trusted if its simulated digest equals
// the facade's — that is the check that the re-assembly is faithful.

// layerCounts is what one twin run measured at the layer boundaries.
// Counts are exact and repeat run to run; the *S fields are host seconds.
type layerCounts struct {
	events     uint64 // sim: events fired
	pendingMax int    // sim: deepest heap seen at a 1 ms slice boundary
	runS       float64

	buildS        float64 // netsim: scheduler + topology + pool wiring
	pkts          int64   // netsim: packets enqueued at switch output ports
	drops         int64
	marks         int64
	maxQueueBytes int

	minted   int64 // packet pool
	recycled int64

	dataPkts int64 // tcp: data segments sent (incl. retransmissions)
	acks     int64
	retrans  int64
	timeouts int64

	setupS     float64 // workload: constructor + observers + Start
	summarizeS float64 // exp: result extraction + stats.Summarize

	timeincEntries int64 // core: registry count, observed runs only
	alphaUpdates   int64 // dctcp: registry count, observed runs only
}

// add folds another run's counts in: sums, except the two high-water marks.
func (c *layerCounts) add(o layerCounts) {
	c.events += o.events
	if o.pendingMax > c.pendingMax {
		c.pendingMax = o.pendingMax
	}
	c.runS += o.runS
	c.buildS += o.buildS
	c.pkts += o.pkts
	c.drops += o.drops
	c.marks += o.marks
	if o.maxQueueBytes > c.maxQueueBytes {
		c.maxQueueBytes = o.maxQueueBytes
	}
	c.minted += o.minted
	c.recycled += o.recycled
	c.dataPkts += o.dataPkts
	c.acks += o.acks
	c.retrans += o.retrans
	c.timeouts += o.timeouts
	c.setupS += o.setupS
	c.summarizeS += o.summarizeS
	c.timeincEntries += o.timeincEntries
	c.alphaUpdates += o.alphaUpdates
}

// sliceStep is the virtual-time granularity at which the twin's run loop
// hands control back to sample the heap depth.
const sliceStep = sim.Millisecond

// runSliced drives the scheduler to finished() or the deadline in 1 ms
// virtual slices, tracking the deepest heap. The events fired and their
// order are exactly those of one RunUntil(deadline): slicing only adds
// return points between events.
func runSliced(sched *sim.Scheduler, deadline sim.Time, finished func() bool) (pendingMax int) {
	for t := sim.Time(0); !finished() && t < deadline && sched.Pending() > 0; {
		t = t.Add(sliceStep)
		if t > deadline {
			t = deadline
		}
		sched.RunUntil(t)
		if n := sched.Pending(); n > pendingMax {
			pendingMax = n
		}
	}
	return pendingMax
}

// build is the netsim phase shared by every twin: scheduler, two-tier
// tree, packet pool — internal/exp's Testbed.build.
func build(tb dcp.Testbed) (*sim.Scheduler, *netsim.TwoTier, *packet.Pool) {
	sched := sim.NewScheduler()
	tt := netsim.NewTwoTier(sched, tb.Leaves, tb.HostsPerLeaf, tb.Topo)
	return sched, tt, tt.EnablePacketPool()
}

func (c *layerCounts) readNetwork(sched *sim.Scheduler, tt *netsim.TwoTier, pool *packet.Pool) {
	c.events = sched.Fired()
	for _, sw := range append([]*netsim.Switch{tt.Root}, tt.Leaves...) {
		st := sw.AggregateStats()
		c.pkts += st.EnqueuedPkts
		c.drops += st.DroppedPkts
		c.marks += st.MarkedPkts
		if st.MaxQueueBytes > c.maxQueueBytes {
			c.maxQueueBytes = st.MaxQueueBytes
		}
	}
	c.minted = pool.Minted()
	c.recycled = pool.Recycled()
}

// twinIncast mirrors exp.RunIncast for the options the benchmark uses (no
// fault plan, no relabeling): build → workload → observers → run → extract.
func twinIncast(o dcp.IncastOptions, observed bool, rec *recorder) (facts, layerCounts) {
	var c layerCounts
	var reg *telemetry.Registry
	if observed {
		reg = telemetry.NewRegistry()
	}

	sp := rec.begin("netsim.build")
	sched, tt, pool := build(o.Testbed)
	c.buildS = rec.end(sp)

	sp = rec.begin("workload.setup")
	perFlow := o.BytesPerFlow
	if perFlow == 0 {
		perFlow = o.TotalBytes / int64(o.Flows)
	}
	in := workload.NewIncast(sched, tt, workload.IncastConfig{
		Flows:         o.Flows,
		BytesPerFlow:  perFlow,
		Rounds:        o.Rounds,
		Factory:       o.Protocol.Factory(o.RTOMin, o.Testbed.Seed),
		ServiceJitter: o.Testbed.ServiceJitter,
		Seed:          o.Testbed.Seed,
	})
	var ck *oracle.Checker
	if o.Oracle {
		ck = oracle.NewChecker(sched)
		for _, conn := range in.Conns() {
			ck.AttachConn(conn)
		}
		ck.AttachTwoTier(tt)
	}
	labels := attachTelemetry(reg, tt, in.Conns(), o.Protocol, o.Flows)
	in.AttachTelemetry(reg, labels...)
	var probes []*trace.CwndProbe
	if o.CollectCwnd {
		for _, conn := range in.Conns() {
			p := trace.NewCwndProbe()
			p.Attach(conn.Sender)
			probes = append(probes, p)
		}
	}
	var sampler *trace.QueueSampler
	if o.QueueSampleEvery > 0 {
		sampler = trace.NewQueueSampler(sched, tt.BottleneckPort, o.QueueSampleEvery)
		sampler.Start()
	}
	in.OnFinished = sched.Halt
	in.Start()
	c.setupS = rec.end(sp)

	sp = rec.begin("sim.run")
	c.pendingMax = runSliced(sched, sim.Time(o.MaxSimTime), in.Finished)
	drained := false
	if o.Oracle && in.Finished() {
		sched.RunFor(100 * sim.Millisecond)
		drained = true
	}
	c.runS = rec.end(sp)

	sp = rec.begin("exp.summarize")
	if reg != nil {
		reg.AdvanceSimTime(sched.Now())
		for _, conn := range in.Conns() {
			if f, ok := conn.Sender.CC().(telemetry.Flusher); ok {
				f.FlushTelemetry(sched.Now())
			}
		}
	}
	f := facts{Ops: o.Rounds, Done: len(in.Results()), SimTime: sched.Now().Sub(sim.Time(0))}
	if ck != nil {
		ck.Finish(drained)
		f.OracleTotal = ck.Total()
	}
	measured := in.Results()
	if len(measured) > o.WarmupRounds {
		measured = measured[o.WarmupRounds:]
	}
	var goodputs, fcts []float64
	for _, r := range measured {
		goodputs = append(goodputs, r.GoodputMbps())
		fcts = append(fcts, r.FCT.Millis())
	}
	goodput, fct := stats.Summarize(goodputs), stats.Summarize(fcts)
	var floss, lack int64
	for _, conn := range in.Conns() {
		st := conn.Sender.Stats()
		c.dataPkts += st.SentPkts
		c.acks += st.AcksIn
		c.retrans += st.RetransPkts
		c.timeouts += st.Timeouts
		floss += st.FLossTimeouts
		lack += st.LAckTimeouts
	}
	// The facade also merges these; the twin does the same work so the
	// phase's cost is comparable, and discards the result.
	if o.CollectCwnd {
		hist := stats.NewHist()
		for _, p := range probes {
			hist.Merge(p.Hist())
		}
	}
	if sampler != nil {
		sampler.Stop()
	}
	f.Timeouts = c.timeouts
	f.Drops = tt.BottleneckPort.Stats().DroppedPkts
	f.Digest = jobDigest(int64(f.SimTime), f.Timeouts, floss, lack, f.Drops, goodput, fct)
	c.summarizeS = rec.end(sp)

	c.readNetwork(sched, tt, pool)
	if reg != nil {
		snap := reg.Snapshot()
		c.timeincEntries = snap.Total("core_enter_timeinc_total")
		c.alphaUpdates = snap.Total("dctcp_alpha_updates_total")
	}
	return f, c
}

// attachTelemetry mirrors exp's run-telemetry wiring: every switch port
// (the bottleneck labeled apart), every sender and its congestion module,
// under the {proto, flows} label set.
func attachTelemetry(reg *telemetry.Registry, tt *netsim.TwoTier, conns []*tcp.Conn, proto dcp.Protocol, flows int) []telemetry.Label {
	base := []telemetry.Label{
		telemetry.L("proto", proto.String()),
		telemetry.L("flows", strconv.Itoa(flows)),
	}
	if reg == nil {
		return base
	}
	with := func(key, value string) []telemetry.Label {
		return append(append([]telemetry.Label(nil), base...), telemetry.L(key, value))
	}
	for _, sw := range append([]*netsim.Switch{tt.Root}, tt.Leaves...) {
		for _, p := range sw.Ports() {
			role := "other"
			if p == tt.BottleneckPort {
				role = "bottleneck"
			}
			p.AttachTelemetry(reg, with("port", role)...)
		}
	}
	for _, conn := range conns {
		conn.Sender.AttachTelemetry(reg, base...)
		if a, ok := conn.Sender.CC().(telemetry.Attacher); ok {
			a.AttachTelemetry(reg, base...)
		}
	}
	return base
}

// twinMix mirrors exp.RunBenchmark. The mix retires its connections as
// they complete, so per-sender stats are gone by the end of the run; the
// twin counts data segments and ACKs at the hosts' delivery hook instead —
// the one observer a twin adds that the facade run does not have.
func twinMix(o dcp.BenchmarkOptions, rec *recorder) (facts, layerCounts) {
	var c layerCounts

	sp := rec.begin("netsim.build")
	sched, tt, pool := build(o.Testbed)
	c.buildS = rec.end(sp)

	sp = rec.begin("workload.setup")
	cfg := o.Traffic
	cfg.Seed = o.Testbed.Seed
	cfg.Factory = o.Protocol.Factory(o.RTOMin, o.Testbed.Seed)
	b := workload.NewBenchmark(sched, tt, cfg)
	count := func(pkt *packet.Packet) {
		switch {
		case pkt.Flags.Has(packet.FlagREQ):
		case pkt.Payload > 0:
			c.dataPkts++
		default:
			c.acks++
		}
	}
	for _, h := range append([]*netsim.Host{tt.Aggregator}, tt.Workers...) {
		h.OnDeliver = count
	}
	b.OnFinished = sched.Halt
	b.Start()
	c.setupS = rec.end(sp)

	sp = rec.begin("sim.run")
	c.pendingMax = runSliced(sched, sim.Time(o.MaxSimTime), b.Finished)
	c.runS = rec.end(sp)

	sp = rec.begin("exp.summarize")
	var d digester
	c.timeouts = b.TotalTimeouts()
	c.retrans = b.TotalRetransmissions()
	d.i64(c.timeouts)
	var qf, sf, bf []float64
	for _, q := range b.QueryResults() {
		qf = append(qf, q.FCT.Millis())
	}
	for _, s := range b.ShortResults() {
		sf = append(sf, s.FCT.Millis())
	}
	for _, g := range b.BackgroundResults() {
		bf = append(bf, g.FCT.Millis())
	}
	d.summary(stats.Summarize(qf))
	d.summary(stats.Summarize(sf))
	d.summary(stats.Summarize(bf))
	// SimTime stays zero, as in the facade's facts: BenchmarkResult does
	// not carry it, and twin and facade facts must compare equal.
	f := facts{
		Ops:      cfg.Queries + cfg.ShortFlows + cfg.BackgroundFlows,
		Done:     len(qf) + len(sf) + len(bf),
		Timeouts: c.timeouts,
		Digest:   d.sum(),
	}
	c.summarizeS = rec.end(sp)

	c.readNetwork(sched, tt, pool)
	return f, c
}

// twinSweepJobs runs every job of the sweep through twinIncast — the layer
// view of what the runner's workers execute — and digests them in job
// order. Cache, manifest and aggregation are the runner's own and have no
// exported seam; their cost is the facade wall minus this pass.
func twinSweepJobs(spec dcp.SweepSpec, rec *recorder) (facts, layerCounts, error) {
	jobs, err := spec.Expand()
	if err != nil {
		return facts{}, layerCounts{}, err
	}
	var (
		total layerCounts
		d     digester
		f     = facts{Ops: len(jobs)}
	)
	sp := rec.begin("sweep.jobs.twin")
	for _, j := range jobs {
		o, err := j.Point.Options()
		if err != nil {
			return facts{}, layerCounts{}, err
		}
		var quiet recorder // per-job phases would be 768 × 4 spans of noise
		jf, jc := twinIncast(o, false, &quiet)
		total.add(jc)
		d.buf.WriteString(jf.Digest) // chained as sweepFacts chains them
		f.SimTime += jf.SimTime
		f.Timeouts += jf.Timeouts
		f.Drops += jf.Drops
		if jf.Done == jf.Ops {
			f.Done++
		}
	}
	rec.end(sp)
	f.Digest = d.sum()
	return f, total, nil
}
