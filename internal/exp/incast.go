package exp

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"dctcpplus/internal/core"
	"dctcpplus/internal/fault"
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

// Testbed describes the simulated cluster shared by every experiment: the
// paper's 2-tier tree of 9 workers + 1 aggregator over 1Gbps GbE switches
// with 128KB per-port buffers and K=32KB.
type Testbed struct {
	Leaves       int
	HostsPerLeaf int
	Topo         netsim.TopologyConfig

	// ServiceJitter staggers worker responses (see workload.IncastConfig);
	// the default models the multithreaded benchmark's scheduling spread
	// on dual-core servers.
	ServiceJitter sim.Duration

	// Seed drives all workload-level randomness.
	Seed uint64
}

// DefaultTestbed returns the paper's cluster parameters. ServiceJitter
// models the response stagger of the multithreaded benchmark: with N up to
// 200 flows over nine dual-core servers, each machine time-slices ~22
// sender threads, spreading response starts over several milliseconds.
func DefaultTestbed() Testbed {
	return Testbed{
		Leaves:        3,
		HostsPerLeaf:  3,
		Topo:          netsim.DefaultTopologyConfig(),
		ServiceJitter: 4 * sim.Millisecond,
		Seed:          1,
	}
}

// HULLTestbed returns the cluster with HULL phantom-queue marking at every
// switch port instead of the DCTCP threshold — the §VII composition with
// the HULL architecture. Pair it with the DCTCP or DCTCP+ protocols: the
// phantom queue marks before any real queue builds, trading ~5% of
// bandwidth for near-empty buffers.
func HULLTestbed() Testbed {
	tb := DefaultTestbed()
	tb.Topo.SwitchPort = netsim.HULLPortConfig()
	return tb
}

// build constructs a fresh scheduler and topology. Experiment runs always
// recycle packets: every consumer in the driver stack (workload handlers,
// taps, probes) copies fields out synchronously, and long sweeps would
// otherwise allocate per packet.
func (tb Testbed) build() (*sim.Scheduler, *netsim.TwoTier) {
	sched := sim.NewScheduler()
	tt := netsim.NewTwoTier(sched, tb.Leaves, tb.HostsPerLeaf, tb.Topo)
	tt.EnablePacketPool()
	return sched, tt
}

// topology is the part of the testbed build reads: Seed and ServiceJitter
// only seed and pace the workload, so two testbeds that differ in them alone
// share one tree.
func (tb Testbed) topology() Testbed {
	tb.Seed, tb.ServiceJitter = 0, 0
	return tb
}

// IncastOptions parameterizes one incast run (one point of Figs. 1/6/7/8
// and 11/12, or the instrumented runs behind Fig. 2, Table I, Fig. 9 and
// Fig. 14).
type IncastOptions struct {
	Testbed  Testbed
	Protocol Protocol

	// Flows is N. TotalBytes is split evenly across flows per round (the
	// paper requests 1MB/N from each of N workers); if BytesPerFlow is
	// nonzero it overrides the split (Fig. 14 uses 4MB per flow).
	Flows        int
	TotalBytes   int64
	BytesPerFlow int64

	// BackgroundFlows is the number of persistent long flows sharing the
	// bottleneck buffer with the incast (§VI-C, Fig. 10's topology; 2 in
	// Figs. 11/12), one per distinct worker toward the aggregator. Zero is
	// the basic incast.
	BackgroundFlows int
	// ChunkBytes is the long flows' throughput-accounting granularity (the
	// paper samples every 1GB; simulations use smaller chunks). It must be
	// positive when BackgroundFlows is.
	ChunkBytes int64

	Rounds int
	// WarmupRounds are excluded from the reported statistics: the paper
	// averages 1000 rounds, where the initial convergence rounds (§VII,
	// Fig. 14) are statistically invisible; our shorter runs exclude them
	// explicitly.
	WarmupRounds int

	RTOMin sim.Duration

	// CollectCwnd attaches per-ACK cwnd probes (Fig. 2 / Table I).
	CollectCwnd bool
	// QueueSampleEvery samples the bottleneck queue at this period
	// (100us in the paper); zero disables sampling.
	QueueSampleEvery sim.Duration

	// MaxSimTime bounds the run (safety against pathological stalls); it
	// must be positive.
	MaxSimTime sim.Duration

	// Enhancement, when non-nil, replaces core.DefaultConfig() as DCTCP+'s
	// enhancement parameters (the §V-D ablations' backoff_time_unit and
	// divisor_factor). Only ProtoDCTCPPlus takes it; background long flows
	// get it too, on their own seed stream.
	Enhancement *core.Config

	// KeepRounds retains the per-round series (including warmup) in the
	// result, for convergence analysis (§VII / Fig. 14).
	KeepRounds bool

	// Telemetry, when non-nil, receives instrument updates from every hot
	// layer of the run (ports, senders, congestion control, workload) under
	// the {proto, flows} label set; background long flows add role=background.
	// The run updates a registry of its own and merges it into this one at
	// the halt (Registry.Merge, under this registry's lock), so one registry
	// is safe to share across RunMany.
	Telemetry *telemetry.Registry

	// Faults, when non-nil, generates a deterministic fault plan from this
	// seeded configuration and injects it into the run (see internal/fault).
	// The run stays a pure function of its options: the same GenConfig
	// yields the same plan, applied at the same virtual times. FaultStats
	// on the result reports what fired.
	Faults *fault.GenConfig

	// Oracle attaches the internal/oracle conformance checker to every
	// connection and the whole topology: protocol violations (ACK
	// monotonicity, retransmission legality, RTO backoff, ECE echo, alpha
	// cadence, the DCTCP+ machine) and conservation violations land on the
	// result's OracleViolations. The checker is a pure observer subscribed
	// to the endpoints' and uplinks' sinks; a run's traffic is
	// byte-identical with it on or off, but the run drains an extra 100ms
	// of virtual time before the conservation audit. The observers' results
	// are read before the drain; SimTime, the timeout totals and the
	// bottleneck drops after it (see Run).
	Oracle bool

	// FlowIDs relabels the workload's flow ids (see
	// workload.IncastConfig.FlowIDs) — the knob behind the metamorphic
	// permutation harness.
	FlowIDs []packet.FlowID

	// MirrorWorkers reverses the flow-to-worker placement order. The
	// two-tier tree is leaf-symmetric, so on a clean run mirroring is a
	// pure relabeling of identical subtrees and every result must be
	// byte-identical — the topology-mirror metamorphic check.
	MirrorWorkers bool
}

// RoundPoint is one round of an incast run, retained when KeepRounds is
// set.
type RoundPoint struct {
	Start sim.Time
	// FCTms is a reporting-boundary value: milliseconds as float64, the
	// same unit-less shape internal/stats summarizes and figures plot.
	FCTms        float64
	GoodputMbps  float64
	FlowTimeouts int64 // flows that hit at least one RTO this round
}

// DefaultIncastOptions returns the basic-incast settings (§VI-B): 1MB
// split over N flows, 200ms RTOmin.
func DefaultIncastOptions(p Protocol, flows int) IncastOptions {
	return IncastOptions{
		Testbed:      DefaultTestbed(),
		Protocol:     p,
		Flows:        flows,
		TotalBytes:   1 << 20,
		Rounds:       50,
		WarmupRounds: 10,
		RTOMin:       200 * sim.Millisecond,
		MaxSimTime:   30 * 60 * sim.Second,
	}
}

// Validate is the one rule for a runnable incast point. RunIncast panics on
// its error; RunMany and sweep check every point before any runs, so a bad
// point fails on the caller's goroutine whatever the pool width.
func (o IncastOptions) Validate() error {
	switch {
	case o.Flows < 1:
		return fmt.Errorf("Flows %d must be at least 1", o.Flows)
	case o.WarmupRounds < 0:
		return fmt.Errorf("WarmupRounds %d cannot be negative", o.WarmupRounds)
	case o.Rounds <= o.WarmupRounds:
		return fmt.Errorf("Rounds must exceed WarmupRounds (%d <= %d)", o.Rounds, o.WarmupRounds)
	case o.BytesPerFlow < 0 || o.BytesPerFlow == 0 && o.TotalBytes <= 0:
		return fmt.Errorf("need a positive byte budget: BytesPerFlow %d, TotalBytes %d", o.BytesPerFlow, o.TotalBytes)
	case o.Testbed.ServiceJitter < 0:
		return fmt.Errorf("Testbed.ServiceJitter %v cannot be negative", o.Testbed.ServiceJitter)
	}
	if err := validateRun(o.Testbed, o.Protocol, o.RTOMin, o.MaxSimTime); err != nil {
		return err
	}
	switch {
	case o.BackgroundFlows < 0 || o.BackgroundFlows >= o.Testbed.Leaves*o.Testbed.HostsPerLeaf:
		return errors.New("BackgroundFlows must be fewer than the workers")
	case o.BackgroundFlows > 0 && o.ChunkBytes <= 0:
		return errors.New("ChunkBytes must be positive with BackgroundFlows")
	case o.Enhancement != nil && o.Protocol != ProtoDCTCPPlus:
		return fmt.Errorf("Enhancement applies to %v only, not %v", ProtoDCTCPPlus, o.Protocol)
	}
	if o.Enhancement != nil {
		if err := o.Enhancement.Validate(); err != nil {
			return fmt.Errorf("Enhancement: %w", err)
		}
	}
	return o.validateFlowIDs()
}

// validateFlowIDs enforces workload.IncastConfig.FlowIDs' rule — one
// nonzero, unique id per flow — and keeps the ids clear of the long flows'
// range when there are any.
func (o IncastOptions) validateFlowIDs() error {
	if len(o.FlowIDs) == 0 {
		return nil
	}
	if len(o.FlowIDs) != o.Flows {
		return fmt.Errorf("FlowIDs has %d ids for %d flows", len(o.FlowIDs), o.Flows)
	}
	seen := make(map[packet.FlowID]bool, len(o.FlowIDs))
	for _, id := range o.FlowIDs {
		switch {
		case id == 0:
			return errors.New("FlowIDs holds flow id 0")
		case seen[id]:
			return fmt.Errorf("FlowIDs repeats flow id %d", id)
		case o.BackgroundFlows > 0 && id >= longFlowBase:
			return fmt.Errorf("flow id %d is in the long flows' range (from %d)", id, longFlowBase)
		}
		seen[id] = true
	}
	return nil
}

// longFlowBase is the first background long flow's id; the incast's ids
// stay below it.
const longFlowBase packet.FlowID = 900_000

// validateRun rejects the options every experiment builds its run from, each
// of which a layer below would otherwise panic on mid-build: tcp on the RTO
// bounds, the protocol table on an unknown protocol, netsim on an empty tree;
// and a run bound that would stop the run before it starts.
func validateRun(tb Testbed, p Protocol, rtoMin, maxSimTime sim.Duration) error {
	switch {
	case maxSimTime <= 0:
		return fmt.Errorf("MaxSimTime %v must be positive", maxSimTime)
	case rtoMin <= 0:
		return errors.New("RTOMin must be positive")
	case rtoMin > tcp.RTOMax:
		return fmt.Errorf("RTOMin %v exceeds the RTO ceiling %v", rtoMin, tcp.RTOMax)
	case !slices.Contains(Protocols, p):
		return fmt.Errorf("unknown protocol %v", p)
	case tb.Leaves < 1 || tb.HostsPerLeaf < 1:
		return errors.New("Testbed needs at least one leaf and one host per leaf")
	case tb.Topo.SwitchPort.BufferBytes < packet.MTU:
		// A full-size segment never fits: every one tail-drops, and the run
		// spends its rounds in RTOs until MaxSimTime.
		return fmt.Errorf("switch port buffer %d B cannot hold one %d-B packet", tb.Topo.SwitchPort.BufferBytes, packet.MTU)
	case tb.Topo.HostQueueBytes < packet.MTU:
		return fmt.Errorf("host queue %d B cannot hold one %d-B packet", tb.Topo.HostQueueBytes, packet.MTU)
	}
	return nil
}

func (o IncastOptions) perFlowBytes() int64 {
	if o.BytesPerFlow > 0 {
		return o.BytesPerFlow
	}
	per := o.TotalBytes / int64(o.Flows)
	if per < 1 {
		per = 1
	}
	return per
}

// Summary is the run's reported numbers: the ones the figures, Table I and
// the sweep cache read. Its JSON names and field order are the cache
// object's (sweep.Result embeds it), so they are a wire format.
type Summary struct {
	// GoodputMbps and FCTms summarize the measured rounds — the y-axes of
	// Figs. 1/6/7/8/11/12.
	GoodputMbps stats.Summary `json:"goodput_mbps"`
	FCTms       stats.Summary `json:"fct_ms"`

	// Table I columns: RTO counts, then fractions over flowxround
	// "transmissions".
	Timeouts         int64   `json:"timeouts"` // total RTO count (measured rounds included only via flags; this is whole-run)
	FLossTO          int64   `json:"floss_to"`
	LAckTO           int64   `json:"lack_to"`
	TimeoutRoundFrac float64 `json:"timeout_round_frac"` // P[flow hit >=1 RTO in a round]
	MinCwndECEFrac   float64 `json:"min_cwnd_ece_frac"`  // P[flow sent with cwnd at floor while ECE set]

	// BottleneckDrops counts tail drops at the root->aggregator port.
	BottleneckDrops int64 `json:"bottleneck_drops"`

	// Rounds is the measured rounds (after warmup).
	Rounds int `json:"measured_rounds"`

	// SimTime is the virtual time the whole run consumed (all rounds,
	// warmup included) — the span fault plans must overlap to matter.
	SimTime sim.Duration `json:"sim_time_ns"`
}

// IncastResult is one completed incast experiment point.
type IncastResult struct {
	Protocol Protocol
	Flows    int
	// Truncated is non-nil when the run stopped (at MaxSimTime) before its
	// last round, naming measured and asked rounds and the sim time; every
	// summary then covers only the rounds done.
	Truncated error

	Summary

	// CwndHist is the merged per-ACK cwnd histogram in MSS (Fig. 2);
	// nil unless CollectCwnd.
	CwndHist *stats.Hist

	// Queue is the bottleneck occupancy series (Figs. 9/14); empty unless
	// QueueSampleEvery > 0.
	Queue trace.QueueSeries

	// LongFlowMbps summarizes per-chunk throughput across the background
	// long flows and PerFlowMeanMbps is each one's mean, in flow order
	// (Figs. 11/12); zero and nil unless BackgroundFlows > 0.
	LongFlowMbps    stats.Summary
	PerFlowMeanMbps []float64

	// Series holds every round (warmup included) when KeepRounds was set.
	Series []RoundPoint

	// FaultStats totals the injected faults; nil unless Faults was set.
	FaultStats *fault.Stats

	// OracleViolations holds the conformance failures (bounded; see
	// OracleTotal for the unbounded count). Nil unless Oracle was set;
	// empty on a conforming run.
	OracleViolations []oracle.Violation
	// OracleTotal is the total violation count, including any beyond the
	// retained list.
	OracleTotal int64
}

// ConvergedAtRound returns the index of the first round after which no
// round saw a flow timeout, or -1 if the run never converged (or the
// series was not kept). This quantifies the paper's §VII observation that
// DCTCP+ "needs several cycles of RTTs to enter the enhancement
// mechanism" — the first rounds may overflow, then the system stabilizes.
func (r IncastResult) ConvergedAtRound() int {
	if len(r.Series) == 0 {
		return -1
	}
	last := -1
	for i, p := range r.Series {
		if p.FlowTimeouts > 0 {
			last = i
		}
	}
	if last == len(r.Series)-1 {
		return -1 // still timing out at the end
	}
	return last + 1
}

// QueueCDF builds the queue-length CDF (Fig. 9) from the samples.
func (r IncastResult) QueueCDF() *stats.CDF {
	vals := make([]float64, 0, r.Queue.Len())
	r.Queue.Each(func(_ sim.Time, bytes int) { vals = append(vals, float64(bytes)) })
	return stats.NewCDF(vals)
}

// RunIncast executes one incast experiment point on a one-shot Rig.
func RunIncast(o IncastOptions) IncastResult {
	var rig Rig
	return rig.Run(o)
}

// Rig is the assembler of incast runs — the only one, with or without
// background long flows: a scheduler, the testbed's two-tier tree (packet
// pool attached) and the incast workload, wired by Run. Between runs a rig
// keeps all three and resets them rather than rebuilding: at the end of a
// run every connection is closed (the workload retires, the long flows
// close), and the next run resets the tree and the scheduler — in that
// order, after the close, so no timer outlives its run — and reopens the
// workload, whose factory recycles each connection's congestion-control
// module. Every layer's reset leaves it equal to a fresh build outside its
// keep-list, so a run's result does not depend on what ran on the rig
// before it (TestRigReuseEqualsFresh).
//
// The zero Rig is ready: it builds on its first Run and again whenever a
// run's testbed has a different topology. A Rig serves one goroutine; the
// fan-outs (RunMany, sweep.Runner) give each pool worker its own for the
// duration of one call, so nothing outlives the batch it served. A Run that
// panics leaves its rig unusable.
type Rig struct {
	topo  Testbed // the testbed the tree was built for, as topology() sees it
	sched *sim.Scheduler
	tt    *netsim.TwoTier
	in    *workload.Incast
	halt  func() // sched.Halt, bound once per build
}

// prepare readies the scheduler and tree for a run on tb: a reset of the
// ones the rig holds when their topology matches, a new build otherwise.
func (rig *Rig) prepare(tb Testbed) {
	if rig.sched != nil && rig.topo == tb.topology() {
		rig.tt.Reset()
		rig.sched.Reset(rig.tt.Reclaim)
		return
	}
	rig.topo = tb.topology()
	rig.sched, rig.tt = tb.build()
	rig.in = nil
	rig.halt = rig.sched.Halt
}

// Run executes one incast experiment point on the rig.
func (rig *Rig) Run(o IncastOptions) IncastResult {
	if err := o.Validate(); err != nil {
		panic("exp: " + err.Error())
	}
	rig.prepare(o.Testbed)
	sched, tt := rig.sched, rig.tt
	if o.MirrorWorkers {
		for i, j := 0, len(tt.Workers)-1; i < j; i, j = i+1, j-1 {
			tt.Workers[i], tt.Workers[j] = tt.Workers[j], tt.Workers[i]
		}
	}
	// Under fault injection a round's request packet can be destroyed
	// outright (blackout, injected loss); the workload's request retry is
	// the application-level recovery that keeps the barrier from hanging.
	// Clean runs leave it off — nothing can destroy a request — so their
	// event streams are unchanged.
	var reqRetry sim.Duration
	if o.Faults != nil {
		reqRetry = 10 * sim.Millisecond
	}
	cfg := workload.IncastConfig{
		Flows:         o.Flows,
		BytesPerFlow:  o.perFlowBytes(),
		Rounds:        o.Rounds,
		Factory:       o.Protocol.factory(o.RTOMin, o.Testbed.Seed, o.Enhancement),
		ServiceJitter: o.Testbed.ServiceJitter,
		Seed:          o.Testbed.Seed,
		RequestRetry:  reqRetry,
		FlowIDs:       o.FlowIDs,
	}
	if rig.in == nil {
		rig.in = workload.NewIncast(sched, tt, cfg)
	} else {
		rig.in.Reopen(cfg)
	}
	in := rig.in

	// Long flows: one per distinct worker, flow ids above the incast range.
	var longs []*workload.LongFlow
	var longConns []*tcp.Conn
	if o.BackgroundFlows > 0 {
		longFactory := o.Protocol.factory(o.RTOMin, o.Testbed.Seed^0xbac, o.Enhancement)
		for i := 0; i < o.BackgroundFlows; i++ {
			cfg, cc := longFactory(1_000_000+i, nil)
			lf := workload.NewLongFlow(sched, tt.Workers[i], tt.Aggregator,
				longFlowBase+packet.FlowID(i), cfg, cc, o.ChunkBytes)
			longs = append(longs, lf)
			longConns = append(longConns, lf.Conn())
		}
	}

	// The conformance checker subscribes before any traffic (observers
	// compose in any order, the fault injector's included).
	var ck *oracle.Checker
	if o.Oracle {
		ck = oracle.NewChecker(sched)
		for _, c := range in.Conns() {
			ck.AttachConn(c)
		}
		for _, c := range longConns {
			ck.AttachConn(c)
		}
		ck.AttachTwoTier(tt)
	}

	// The run's layers update a registry the run owns; o.Telemetry gets
	// it in one Merge at the halt, so runs in parallel share no instrument.
	var reg *telemetry.Registry
	if o.Telemetry != nil {
		reg = telemetry.NewRegistry()
	}
	labels := attachRunTelemetry(reg, tt, in.Conns(), o.Protocol, o.Flows)
	in.AttachTelemetry(reg, labels...)
	// Long flows report under their own role label so their transport events
	// do not blend into the incast flows' counters.
	if len(longConns) > 0 {
		attachConnTelemetry(reg, longConns, withLabel(labels, "role", "background"))
	}

	var inj *fault.Injector
	if o.Faults != nil {
		el := fault.TwoTierElements(tt)
		inj = fault.NewInjector(sched, el)
		inj.Install(fault.Generate(*o.Faults, len(el.Links), len(el.Ports), len(el.Hosts)))
	}

	// Every observer above is attached before Start, which pumps a long
	// flow's first chunk synchronously.
	for _, lf := range longs {
		lf.Start()
	}

	var probes []*trace.CwndProbe
	if o.CollectCwnd {
		for _, c := range in.Conns() {
			p := trace.NewCwndProbe()
			p.Attach(c.Sender)
			probes = append(probes, p)
		}
	}
	var sampler *trace.QueueSampler
	if o.QueueSampleEvery > 0 {
		sampler = trace.NewQueueSampler(sched, tt.BottleneckPort, o.QueueSampleEvery)
		sampler.Start()
	}

	in.OnFinished = rig.halt
	in.Start()
	sched.RunUntil(sim.Time(o.MaxSimTime))
	for _, lf := range longs {
		lf.Stop()
	}
	// The observers' results are read at the halt: the oracle's drain below
	// serves only its conservation ledger, and what the sampler, the probes,
	// telemetry and the fault injector report must not depend on it.
	res := IncastResult{Protocol: o.Protocol, Flows: o.Flows}
	if sampler != nil {
		res.Queue = sampler.Series() // a copy: blind to samples taken later
	}
	if o.CollectCwnd {
		res.CwndHist = mergeCwndProbes(probes)
	}
	finishRunTelemetry(reg, sched.Now(), tt, labels, in.Conns(), longConns)
	if inj != nil {
		st := inj.Finish()
		res.FaultStats = &st
		countFaults(reg, st, withLabel(labels, "faults", fault.ClassesLabel(o.Faults.Classes)))
	}
	o.Telemetry.Merge(reg)
	if len(longs) > 0 {
		var chunks []float64
		for _, lf := range longs {
			chunks = append(chunks, lf.ChunkThroughputMbps()...)
			res.PerFlowMeanMbps = append(res.PerFlowMeanMbps, lf.MeanThroughputMbps())
		}
		res.LongFlowMbps = stats.Summarize(chunks)
	}

	drained := false
	if o.Oracle && in.Finished() {
		// Completion halts on the final ACK; duplicate retransmissions
		// raced by the originals can still be in flight. Drain them so the
		// conservation ledger balances.
		sched.RunFor(100 * sim.Millisecond)
		drained = true
		// A stopped long flow can still hold two chunks of backlog, more
		// than the drain window carries at large ChunkBytes; the ledger is
		// audited only if every one of them was delivered too.
		for _, c := range longConns {
			drained = drained && c.Sender.Done()
		}
	}
	if ck != nil {
		res.OracleViolations = ck.Finish(drained)
		res.OracleTotal = ck.Total()
	}

	// SimTime, the timeout totals and the bottleneck drops are still read
	// after the drain, with the sampler ticking through it (the drain ends
	// at its last event): cmd/perf's traced twin reads them after a drain
	// of its own and fails a run whose facade result differs (ROADMAP 1).
	if sampler != nil {
		sampler.Stop()
	}
	res.SimTime = sched.Now().Sub(sim.Time(0))
	if o.KeepRounds {
		for _, r := range in.Results() {
			res.Series = append(res.Series, RoundPoint{
				Start:        r.Start,
				FCTms:        r.FCT.Millis(),
				GoodputMbps:  r.GoodputMbps(),
				FlowTimeouts: int64(r.TimeoutFlows),
			})
		}
	}
	measured := in.Results()
	measured = measured[min(o.WarmupRounds, len(measured)):]
	res.Rounds = len(measured)
	if !in.Finished() {
		res.Truncated = fmt.Errorf("%d of %d measured rounds done when the run stopped at sim time %v (MaxSimTime %v)",
			res.Rounds, o.Rounds-o.WarmupRounds, res.SimTime, o.MaxSimTime)
	}

	goodputs := make([]float64, 0, len(measured))
	fcts := make([]float64, 0, len(measured))
	var timeoutFlows, eceFlows, totalFlows int64
	for _, r := range measured {
		goodputs = append(goodputs, r.GoodputMbps())
		fcts = append(fcts, r.FCT.Millis())
		totalFlows += int64(r.Flows)
		timeoutFlows += int64(r.TimeoutFlows)
		eceFlows += int64(r.MinCwndECEFlows)
	}
	res.GoodputMbps = stats.Summarize(goodputs)
	res.FCTms = stats.Summarize(fcts)
	if totalFlows > 0 {
		res.TimeoutRoundFrac = float64(timeoutFlows) / float64(totalFlows)
		res.MinCwndECEFrac = float64(eceFlows) / float64(totalFlows)
	}

	for _, c := range in.Conns() {
		st := c.Sender.Stats()
		res.Timeouts += st.Timeouts
		res.FLossTO += st.FLossTimeouts
		res.LAckTO += st.LAckTimeouts
	}
	res.BottleneckDrops = tt.BottleneckPort.Stats().DroppedPkts
	// Retire: every connection closes while the scheduler still holds its
	// timers' events, leaving the rig ready for the next prepare.
	in.Close()
	for _, c := range longConns {
		c.Close()
	}
	return res
}

// mergeCwndProbes folds the per-flow probes into the run's cwnd histogram
// (Fig. 2).
func mergeCwndProbes(probes []*trace.CwndProbe) *stats.Hist {
	hist := stats.NewHist()
	for _, p := range probes {
		hist.Merge(p.Hist())
	}
	return hist
}

// PrintIncastRows writes a figure curve as aligned text rows.
func PrintIncastRows(w io.Writer, results []IncastResult) {
	fmt.Fprintf(w, "%-14s %5s %10s %10s %10s %10s %9s\n",
		"protocol", "N", "goodput", "fct.mean", "fct.p95", "fct.p99", "timeouts")
	for _, r := range results {
		fmt.Fprintf(w, "%-14s %5d %7.0f Mb %8.2fms %8.2fms %8.2fms %9d\n",
			r.Protocol, r.Flows, r.GoodputMbps.Mean,
			r.FCTms.Mean, r.FCTms.P95, r.FCTms.P99, r.Timeouts)
	}
}

// PrintBackgroundIncastRows writes the Figs. 11/12 rows: incast goodput and
// FCT alongside the long flows' throughput.
func PrintBackgroundIncastRows(w io.Writer, results []IncastResult) {
	fmt.Fprintf(w, "%-14s %5s %10s %10s %10s %12s %9s\n",
		"protocol", "N", "goodput", "fct.mean", "fct.p99", "longflow", "timeouts")
	for _, r := range results {
		fmt.Fprintf(w, "%-14s %5d %7.0f Mb %8.2fms %8.2fms %9.0f Mb %9d\n",
			r.Protocol, r.Flows, r.GoodputMbps.Mean,
			r.FCTms.Mean, r.FCTms.P99, r.LongFlowMbps.Mean, r.Timeouts)
	}
}
