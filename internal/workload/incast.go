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
// module for the i-th flow of a workload. old is the module of the retired
// connection the flow is about to reopen, or nil for a new connection: a
// factory may hand old back re-parameterised when it is the kind of module
// it builds (dctcp.Recycle, d2tcp.Recycle, core.Recycle — the sender's open
// then runs Init, a full reset), or return a new one; either way the module
// it returns serves this flow alone. Factories should derive cfg.Seed from
// i so concurrent flows draw independent random streams.
type FlowFactory func(i int, old tcp.CongestionControl) (tcp.Config, tcp.CongestionControl)

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
	// Seed drives the service-jitter stream.
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

// RoundResult records one completed incast round. Its flow counts are the
// unit of the paper's Table I percentages ("among all transmissions" =
// among all request rounds).
type RoundResult struct {
	Start sim.Time
	FCT   sim.Duration // request issue to last response byte
	Bytes int64        // total payload delivered this round

	Flows           int // flows that served the round
	TimeoutFlows    int // flows that hit at least one RTO this round
	MinCwndECEFlows int // flows that sent with cwnd at the floor while ECE was set
}

// GoodputMbps returns the round's application goodput in Mbps.
func (r RoundResult) GoodputMbps() float64 {
	if r.FCT <= 0 {
		return 0
	}
	return float64(r.Bytes) * 8 / 1e6 / r.FCT.Seconds()
}

// roundMark is the part of one sender's statistics a round's flow counts
// compare against: its totals when the round started.
type roundMark struct {
	timeouts        int64
	minCwndECESends int64
}

// Incast drives the barrier-synchronized incast workload over a two-tier
// topology. Connections are persistent: the same N flows serve every
// round, as in the multithreaded benchmark the paper adapted.
//
// Lifecycle, as for tcp.Conn: NewIncast builds the workload and opens it;
// Close retires it (every connection closed); Reopen runs the same
// initialiser, open, on a retired workload — typically for the next run on
// the same scheduler and tree after both were reset — so a run that reuses
// it reopens the connections, congestion-control modules and per-flow
// tables the previous run built instead of allocating them. A reopened
// workload is a fresh one except for the keep-list open spells out.
type Incast struct {
	sched *sim.Scheduler
	tt    *netsim.TwoTier
	cfg   IncastConfig
	// live is set by open and cleared by Close; open asserts it is clear.
	live bool

	// conns is the open connections, flow i at index i: a prefix of built,
	// every connection the workload has ever made (the rest stay closed
	// until a larger Flows reopens them). onData[i] is connection i's
	// Receiver.OnData, bound once when the connection is built.
	conns  []*tcp.Conn
	built  []*tcp.Conn
	onData []func(n int64)
	rng    sim.RNG

	// flowIdx maps a flow id back to its index (the inverse of
	// IncastConfig.flowID) — the one flow-keyed table: the sender is
	// conns[i].Sender, the worker position i mod W.
	flowIdx map[packet.FlowID]int

	round      int64
	roundStart sim.Time
	recvd      []int64
	doneFlows  int64
	statsMark  []roundMark // per-flow snapshot at round start
	// servedRound[i] is the last round whose request flow i's worker has
	// served (-1 initially): the dedup that makes request retries
	// idempotent.
	servedRound []int

	// respondFn starts a response on the *tcp.Sender it is handed: bound
	// once so onRequest schedules through AtArg/AfterArg without minting a
	// closure per flow per round. requestFn is onRequest, bound once and
	// installed as every worker's OnControl on each open.
	respondFn func(any)
	requestFn func(*packet.Packet)

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
	in := &Incast{sched: sched, tt: tt}
	in.respondFn = in.respond
	in.requestFn = in.onRequest
	in.open(cfg)
	return in
}

// Close retires the workload: every connection closes, its timers disarmed
// and its endpoints unregistered. Results stay readable until the next
// Reopen.
func (in *Incast) Close() {
	for _, c := range in.conns {
		c.Close()
	}
	in.live = false
}

// Reopen re-initialises a retired workload for cfg, exactly as NewIncast
// would build it on the workload's scheduler and tree; hooks (OnFinished)
// and telemetry must be attached again. Reopening a workload that was not
// closed is an invariant violation.
func (in *Incast) Reopen(cfg IncastConfig) { in.open(cfg) }

// open is the workload's one initialiser, run by NewIncast on a new
// workload and by Reopen on a retired one: it resets every field by
// whole-struct assignment except the keep-list below, then opens flow i's
// connection — reopening the i-th one already built, its
// congestion-control module handed to the factory to recycle, or building
// it.
func (in *Incast) open(cfg IncastConfig) {
	cfg.validate()
	if in.live {
		check.Failf("workload.incast open: the workload is still open")
	}
	n := cfg.Flows
	*in = Incast{
		cfg:  cfg,
		live: true,

		// The keep-list: wiring, the once-bound callbacks, every connection
		// built so far with its OnData callback, and the per-flow tables'
		// and results' storage (emptied below).
		sched:       in.sched,
		tt:          in.tt,
		built:       in.built,
		onData:      in.onData,
		respondFn:   in.respondFn,
		requestFn:   in.requestFn,
		flowIdx:     in.flowIdx,
		recvd:       zeroed(in.recvd, n),
		statsMark:   zeroed(in.statsMark, n),
		servedRound: zeroed(in.servedRound, n),
		results:     in.results[:0],
	}
	in.rng.Reseed(cfg.Seed ^ 0x1ca5717e)
	if in.flowIdx == nil {
		in.flowIdx = make(map[packet.FlowID]int, n)
	}
	clear(in.flowIdx)
	for i := range in.servedRound {
		in.servedRound[i] = -1
	}
	for i := 0; i < n; i++ {
		w := in.tt.Workers[i%len(in.tt.Workers)]
		flow := cfg.flowID(i)
		if i < len(in.built) {
			c := in.built[i]
			tcfg, cc := cfg.Factory(i, c.Sender.CC())
			c.Reopen(tcfg, cc, w, in.tt.Aggregator, flow)
		} else {
			i := i
			tcfg, cc := cfg.Factory(i, nil)
			in.built = append(in.built, tcp.NewConn(tcfg, cc, w, in.tt.Aggregator, flow))
			in.onData = append(in.onData, func(n int64) { in.deliver(i, n) })
		}
		in.built[i].Receiver.OnData = in.onData[i]
		in.flowIdx[flow] = i
	}
	in.conns = in.built[:n:n] // capped: appending to Conns() must not write over a spare
	// All workers dispatch arriving requests to the matching flow sender.
	for _, w := range in.tt.Workers {
		w.OnControl = in.requestFn
	}
}

// zeroed returns s resized to n zero elements, reusing its storage when it
// is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
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
		st := in.conns[i].Sender.Stats()
		in.statsMark[i] = roundMark{st.Timeouts, st.MinCwndECESends}
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
	// Duration draws nothing from the stream when ServiceJitter is zero.
	if delay := in.rng.Duration(in.cfg.ServiceJitter); delay > 0 {
		in.sched.AfterArg(delay, in.respondFn, snd)
		return
	}
	snd.Send(in.cfg.BytesPerFlow)
}

// respond is respondFn: the delayed start of a response on the sender.
func (in *Incast) respond(snd any) { snd.(*tcp.Sender).Send(in.cfg.BytesPerFlow) }

// deliver tracks per-flow response progress; when the last byte of the last
// flow arrives the round closes and the next begins.
func (in *Incast) deliver(i int, n int64) {
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
		Flows: in.cfg.Flows,
	}
	for i, c := range in.conns {
		st := c.Sender.Stats()
		mark := in.statsMark[i]
		if st.Timeouts > mark.timeouts {
			res.TimeoutFlows++
		}
		if st.MinCwndECESends > mark.minCwndECESends {
			res.MinCwndECEFlows++
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
