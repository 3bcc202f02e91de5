// Package workload implements the traffic patterns of the paper's
// evaluation: the barrier-synchronized incast benchmark (§III, §VI-B),
// persistent background flows (§VI-C), and the production-cluster-style
// benchmark mix of queries and heavy-tailed background transfers (§VI-D).
package workload

import (
	"fmt"

	"dctcpplus/internal/check"
	"dctcpplus/internal/netsim"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/tcp"
	"dctcpplus/internal/telemetry"
)

// FlowFactory produces the transport configuration and congestion-control
// module for the i-th flow of a workload. Factories must return a fresh
// CongestionControl per call (modules hold per-sender state) and should
// derive cfg.Seed from i so concurrent flows draw independent random
// streams.
type FlowFactory func(i int) (tcp.Config, tcp.CongestionControl)

// IncastConfig parameterizes the basic incast benchmark: the aggregator
// requests BytesPerFlow from each of Flows workers, waits for all
// responses, and immediately issues the next round, Rounds times.
type IncastConfig struct {
	// Flows is N, the number of concurrent senders.
	Flows int
	// BytesPerFlow is the response size per flow per round. The paper's
	// basic experiment uses 1MB/N; Figure 14 uses 4MB per flow.
	BytesPerFlow int64
	// Rounds is the number of request/response rounds (1000 in the paper).
	Rounds int
	// Factory builds each flow's transport.
	Factory FlowFactory
	// ServiceJitter models worker-side request processing delay: each
	// response starts after an independent uniform delay in
	// [0, ServiceJitter). Zero yields the fully synchronized worst case.
	ServiceJitter sim.Duration
	// ServiceTime models the per-response CPU cost on a worker,
	// exponentially distributed with this mean and *serialized per worker
	// host*: the paper's benchmark runs N/9 sender threads on each
	// dual-core server, so responses leave a machine staggered by
	// scheduling, with the stagger growing with the number of colocated
	// flows. Zero disables service-time modeling.
	ServiceTime sim.Duration
	// Seed drives the service-jitter/service-time streams.
	Seed uint64

	// FlowIDs, when non-nil, assigns flow i the i-th id instead of the
	// default FlowID(i+1). Relabeling changes nothing observable — flow
	// ids are opaque demux keys — which is exactly what the metamorphic
	// permutation harness in internal/exp verifies. Must have length
	// Flows; ids must be nonzero and unique.
	FlowIDs []packet.FlowID

	// RequestRetry re-issues a round's request to every worker that has
	// sent nothing back after this interval, repeating until the first
	// response byte arrives. Requests are raw control packets with no
	// transport-layer recovery, so a request destroyed mid-flight (a link
	// blackout or injected loss from internal/fault) would otherwise hang
	// the round barrier forever. Workers serve each round's request at
	// most once, so a duplicate request is a no-op. Zero disables retries
	// — the right setting on a fault-free network, where requests cannot
	// be destroyed.
	RequestRetry sim.Duration
}

func (c IncastConfig) validate() {
	switch {
	case c.Flows <= 0:
		panic("workload: incast needs at least one flow")
	case c.BytesPerFlow <= 0:
		panic("workload: BytesPerFlow must be positive")
	case c.Rounds <= 0:
		panic("workload: Rounds must be positive")
	case c.Factory == nil:
		panic("workload: nil FlowFactory")
	case len(c.FlowIDs) > 0 && len(c.FlowIDs) != c.Flows:
		panic("workload: FlowIDs length must equal Flows")
	}
}

// flowID returns the id of flow index i.
func (c IncastConfig) flowID(i int) packet.FlowID {
	if len(c.FlowIDs) > 0 {
		return c.FlowIDs[i]
	}
	return packet.FlowID(i + 1)
}

// FlowRound captures one flow's per-round event flags, the unit of the
// paper's Table I percentages ("among all transmissions" = among all
// request rounds).
type FlowRound struct {
	Timeout    bool // the flow hit at least one RTO this round
	MinCwndECE bool // the flow sent with cwnd at the floor while ECE was set
}

// RoundResult records one completed incast round.
type RoundResult struct {
	Start sim.Time
	FCT   sim.Duration // request issue to last response byte
	Bytes int64        // total payload delivered this round
	Flows []FlowRound
}

// GoodputMbps returns the round's application goodput in Mbps.
func (r RoundResult) GoodputMbps() float64 {
	if r.FCT <= 0 {
		return 0
	}
	return float64(r.Bytes) * 8 / 1e6 / r.FCT.Seconds()
}

// Incast drives the barrier-synchronized incast workload over a two-tier
// topology. Connections are persistent: the same N flows serve every
// round, as in the multithreaded benchmark the paper adapted.
type Incast struct {
	sched *sim.Scheduler
	tt    *netsim.TwoTier
	cfg   IncastConfig

	conns []*tcp.Conn
	rng   *sim.RNG

	// cpuFree[w] is the virtual time at which the CPU of tt.Workers[w]
	// becomes available to start the next response (service-time
	// serialization); flow i runs on worker i mod W.
	cpuFree []sim.Time
	// flowIdx maps a flow id back to its index (the inverse of
	// IncastConfig.flowID) — the one flow-keyed table: the sender is
	// conns[i].Sender, the worker position i mod W.
	flowIdx map[packet.FlowID]int

	round      int64
	roundStart sim.Time
	recvd      []int64
	doneFlows  int64
	statsMark  []tcp.SenderStats // per-flow snapshot at round start
	// servedRound[i] is the last round whose request flow i's worker has
	// served (-1 initially): the dedup that makes request retries
	// idempotent.
	servedRound []int

	// respondFn starts a response on the *tcp.Sender it is handed: bound
	// once so onRequest schedules through AtArg/AfterArg without minting a
	// closure per flow per round.
	respondFn func(any)

	results []RoundResult

	// Telemetry instruments; nil (no-op) unless AttachTelemetry was called.
	mRounds  *telemetry.Counter
	mGoodput *telemetry.Histogram
	mFCT     *telemetry.Histogram

	// OnFinished fires after the final round completes. Experiments
	// typically halt the scheduler here.
	OnFinished func()
}

// NewIncast wires the incast workload onto the topology: flow i's sender
// lives on worker i mod W (the paper round-robins threads over its nine
// servers) and its receiver on the aggregator.
func NewIncast(sched *sim.Scheduler, tt *netsim.TwoTier, cfg IncastConfig) *Incast {
	cfg.validate()
	in := &Incast{
		sched:       sched,
		tt:          tt,
		cfg:         cfg,
		recvd:       make([]int64, cfg.Flows),
		statsMark:   make([]tcp.SenderStats, cfg.Flows),
		servedRound: make([]int, cfg.Flows),
		rng:         sim.NewRNG(cfg.Seed ^ 0x1ca5717e),
		cpuFree:     make([]sim.Time, len(tt.Workers)),
		flowIdx:     make(map[packet.FlowID]int, cfg.Flows),
	}
	for i := range in.servedRound {
		in.servedRound[i] = -1
	}
	n := cfg.BytesPerFlow
	in.respondFn = func(snd any) { snd.(*tcp.Sender).Send(n) }
	for i := 0; i < cfg.Flows; i++ {
		i := i
		w := tt.Workers[i%len(tt.Workers)]
		tcfg, cc := cfg.Factory(i)
		flow := cfg.flowID(i)
		conn := tcp.NewConn(tcfg, cc, w, tt.Aggregator, flow)
		conn.Receiver.OnData = func(n int64) { in.onData(i, n) }
		in.conns = append(in.conns, conn)
		in.flowIdx[flow] = i
	}
	// All workers dispatch arriving requests to the matching flow sender.
	for _, w := range tt.Workers {
		w.OnControl = in.onRequest
	}
	return in
}

// AttachTelemetry registers the workload's instruments on reg under the
// given labels: a completed-round counter plus per-round goodput (Mbps) and
// FCT (ns) histograms, each observed as a round closes. With a nil
// registry the instruments stay nil and every update is a no-op.
func (in *Incast) AttachTelemetry(reg *telemetry.Registry, labels ...telemetry.Label) {
	in.mRounds = reg.Counter("workload_rounds_total", labels...)
	in.mGoodput = reg.Histogram("workload_round_goodput_mbps", labels...)
	in.mFCT = reg.Histogram("workload_round_fct_ns", labels...)
}

// Conns returns the workload's connections (flow i at index i), for
// attaching probes.
func (in *Incast) Conns() []*tcp.Conn { return in.conns }

// Results returns the completed rounds so far.
func (in *Incast) Results() []RoundResult { return in.results }

// Finished reports whether all rounds completed.
func (in *Incast) Finished() bool {
	return in.round >= int64(in.cfg.Rounds) && in.doneFlows == 0
}

// Start issues the first round's requests. The caller then runs the
// scheduler.
func (in *Incast) Start() { in.startRound() }

func (in *Incast) startRound() {
	in.roundStart = in.sched.Now()
	in.doneFlows = 0
	for i := range in.recvd {
		in.recvd[i] = 0
		in.statsMark[i] = in.conns[i].Sender.Stats()
	}
	// The aggregator's requests are real 40-byte packets sharing the
	// reverse path with ACKs; every worker receives its request at nearly
	// the same instant — the synchronization at the heart of incast.
	for i := range in.conns {
		in.sendRequest(i)
	}
	if in.cfg.RequestRetry > 0 {
		round := in.round
		in.sched.After(in.cfg.RequestRetry, func() { in.retryRequests(round) })
	}
}

// sendRequest issues the current round's request to flow i's worker. Seq
// carries the round number so workers can discard duplicates.
func (in *Incast) sendRequest(i int) {
	pkt := in.tt.Aggregator.AllocPacket()
	pkt.Dst = in.conns[i].Receiver.Peer()
	pkt.Flow = in.cfg.flowID(i)
	pkt.Seq = in.round
	pkt.Flags = packet.FlagREQ
	pkt.ReqBytes = in.cfg.BytesPerFlow
	pkt.SendTime = in.sched.Now()
	in.tt.Aggregator.Send(pkt)
}

// retryRequests re-issues the round's request to every flow that has
// delivered nothing yet, then re-arms itself while any such flow remains.
// Flows with partial data are left alone: their request arrived, and loss
// recovery is the transport's job.
func (in *Incast) retryRequests(round int64) {
	if in.round != round {
		return // the round closed while the timer was pending
	}
	pending := false
	for i := range in.conns {
		if in.recvd[i] == 0 {
			pending = true
			in.sendRequest(i)
		}
	}
	if pending {
		in.sched.After(in.cfg.RequestRetry, func() { in.retryRequests(round) })
	}
}

// onRequest runs on a worker when the aggregator's request arrives: the
// matching sender responds with the requested bytes — cfg.BytesPerFlow in
// every request sendRequest builds — after its service delay.
func (in *Incast) onRequest(pkt *packet.Packet) {
	i, ok := in.flowIdx[pkt.Flow]
	if !ok {
		panic(fmt.Sprintf("workload: request for unknown flow %d", pkt.Flow))
	}
	snd := in.conns[i].Sender
	if int(pkt.Seq) <= in.servedRound[i] {
		return // duplicate of a request already being served
	}
	in.servedRound[i] = int(pkt.Seq)
	delay := sim.Duration(0)
	if in.cfg.ServiceJitter > 0 {
		delay = in.rng.Duration(in.cfg.ServiceJitter)
	}
	if in.cfg.ServiceTime > 0 {
		// Serialize response preparation on the worker's CPU: this
		// response starts when the CPU frees up, and holds it for an
		// exponential service time.
		w := i % len(in.cpuFree)
		start := in.sched.Now().Add(delay)
		if free := in.cpuFree[w]; free > start {
			start = free
		}
		done := start.Add(in.rng.Exp(in.cfg.ServiceTime))
		in.cpuFree[w] = done
		in.sched.AtArg(done, in.respondFn, snd)
		return
	}
	if delay > 0 {
		in.sched.AfterArg(delay, in.respondFn, snd)
		return
	}
	snd.Send(in.cfg.BytesPerFlow)
}

// onData tracks per-flow response progress; when the last byte of the last
// flow arrives the round closes and the next begins.
func (in *Incast) onData(i int, n int64) {
	in.recvd[i] += n
	check.AtMost("workload.incast received bytes", in.recvd[i], in.cfg.BytesPerFlow)
	if in.recvd[i] == in.cfg.BytesPerFlow {
		in.doneFlows++
		if in.doneFlows == int64(in.cfg.Flows) {
			in.endRound()
		}
	}
}

func (in *Incast) endRound() {
	now := in.sched.Now()
	res := RoundResult{
		Start: in.roundStart,
		FCT:   now.Sub(in.roundStart),
		Bytes: in.cfg.BytesPerFlow * int64(in.cfg.Flows),
		Flows: make([]FlowRound, in.cfg.Flows),
	}
	for i, c := range in.conns {
		st := c.Sender.Stats()
		mark := in.statsMark[i]
		res.Flows[i] = FlowRound{
			Timeout:    st.Timeouts > mark.Timeouts,
			MinCwndECE: st.MinCwndECESends > mark.MinCwndECESends,
		}
	}
	in.results = append(in.results, res)
	in.mRounds.Add(1)
	in.mGoodput.Observe(int64(res.GoodputMbps() + 0.5))
	in.mFCT.Observe(int64(res.FCT))
	in.round++
	in.doneFlows = 0
	if in.round < int64(in.cfg.Rounds) {
		in.startRound()
		return
	}
	if in.OnFinished != nil {
		in.OnFinished()
	}
}
