package main

import (
	"context"
	"fmt"
	"path/filepath"

	dcp "dctcpplus"
	"dctcpplus/internal/lint"
	"dctcpplus/internal/netsim"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/stats"
	"dctcpplus/internal/sweep"
	"dctcpplus/internal/tcp"
	"dctcpplus/internal/workload"
)

// Micro-drivers: tight loops over the layers' exported functions at the
// two operating points the workloads pin (shallow heap / few connections
// as in incast_bulk, deep heap / many connections as in incast_massive).
// They are workload-independent, so every traced run reports them; a
// layer change should move its driver first and then — by at most that
// layer's cpu_share — the workloads' wall_s.

// drivers runs every micro-driver at 1/div of full iteration counts and
// returns their metrics by name. tmp is a scratch directory for the sweep
// drivers' caches; spans go to rec.
func drivers(seed uint64, div int, tmp string, rec *recorder) (map[string]float64, error) {
	m := map[string]float64{}
	timed := func(name string, fn func()) {
		sp := rec.begin("driver." + name)
		fn()
		rec.end(sp)
	}

	timed("sim", func() {
		m["sim.churn_ns.d64"] = simChurn(seed, 64, scaled(2_000_000, div))
		m["sim.churn_ns.d4096"] = simChurn(seed, 4096, scaled(1_000_000, div))
		m["sim.timer_reset_ns.d4096"] = simTimerReset(seed, 4096, scaled(1_000_000, div))
	})
	timed("netsim", func() {
		m["netsim.hop_ns"], m["netsim.hop_allocs"] = netsimHop(scaled(30_000, div))
	})
	timed("tcp", func() {
		m["tcp.segment_ns"], m["tcp.segment_allocs"] = tcpSegment(int64(scaled(16<<20, div)))
		m["tcp.conn_setup_us"], m["tcp.conn_setup_allocs"] = tcpConnSetup(scaled(2000, div))
	})
	timed("workload", func() {
		m["workload.round_overhead_us"] = workloadRound(seed, scaled(200, div))
	})
	timed("exp", func() {
		m["exp.run_setup_us"], m["exp.run_setup_allocs"] = expRunSetup(seed, scaled(20, div))
	})
	timed("stats", func() {
		m["stats.summarize_ns_per_sample"] = statsSummarize(seed, scaled(100, div))
	})
	var err error
	timed("sweep", func() { err = sweepDrivers(seed, div, tmp, m) })
	if err != nil {
		return nil, err
	}
	timed("observers", func() {
		m["telemetry.attach_overhead_share"], m["oracle.attach_overhead_share"] = attachOverhead(seed, scaled(100, div))
	})
	timed("lint", func() { err = lintPass(m) })
	return m, err
}

// perOp divides elapsed seconds into nanoseconds per operation.
func perOp(seconds float64, ops int) float64 { return seconds * 1e9 / float64(ops) }

// simChurn measures At+Step with the heap held at the given depth: each
// fired event schedules one successor at a seeded pseudo-random distance,
// so insertions land throughout the heap rather than at its top.
func simChurn(seed uint64, depth, iters int) float64 {
	s := sim.NewScheduler()
	rng := sim.NewRNG(seed)
	horizon := sim.Duration(depth) * sim.Microsecond
	var fn func()
	fn = func() { s.After(1+rng.Duration(horizon), fn) }
	for i := 0; i < depth; i++ {
		s.After(rng.Duration(horizon), fn)
	}
	for i := 0; i < depth; i++ { // reach steady state and fill the freelist
		s.Step()
	}
	start := now()
	for i := 0; i < iters; i++ {
		s.Step()
	}
	return perOp(since(start), iters)
}

// simTimerReset measures Timer.Reset — cancel plus re-arm, the per-ACK RTO
// pattern — over `depth` armed timers, so every cancel removes from the
// middle of a deep heap.
func simTimerReset(seed uint64, depth, iters int) float64 {
	s := sim.NewScheduler()
	rng := sim.NewRNG(seed)
	timers := make([]*sim.Timer, depth)
	for i := range timers {
		timers[i] = sim.NewTimer(s, func() {})
		timers[i].Reset(200*sim.Millisecond + rng.Duration(sim.Millisecond))
	}
	start := now()
	for i := 0; i < iters; i++ {
		timers[i%depth].Reset(200*sim.Millisecond + rng.Duration(sim.Millisecond))
	}
	return perOp(since(start), iters)
}

// netsimHop measures one pooled packet through Port → Link → Host in
// bursts of 32 (queue growth, ECN marking above K, serialization
// chaining), returning ns and allocations per packet.
func netsimHop(bursts int) (ns, allocs float64) {
	const burst = 32
	s := sim.NewScheduler()
	pool := &packet.Pool{}
	dst := netsim.NewHost(s, 2, "sink")
	dst.SetPool(pool)
	link := netsim.NewLink(s, dst, 1e9, 10*sim.Microsecond)
	link.SetPool(pool)
	port := netsim.NewPort(s, link, netsim.DefaultPortConfig())
	port.SetPool(pool)
	seq := int64(0)
	send := func() {
		for i := 0; i < burst; i++ {
			pkt := pool.Get()
			pkt.Dst = dst.ID()
			pkt.Flow = 1
			pkt.Seq = seq
			pkt.Payload = packet.MSS
			pkt.ECN = packet.ECT
			seq += packet.MSS
			port.Enqueue(pkt)
		}
		s.Run()
	}
	for i := 0; i < 4; i++ {
		send()
	}
	before := readMem()
	start := now()
	for i := 0; i < bursts; i++ {
		send()
	}
	elapsed := since(start)
	after := readMem()
	pkts := bursts * burst
	return perOp(elapsed, pkts), float64(after.mallocs-before.mallocs) / float64(pkts)
}

// tcpSegment measures a NewReno bulk transfer across a two-host star,
// returning ns and allocations per data segment sent, connection setup
// included: the median of nine transfers, since one lasts only
// milliseconds.
func tcpSegment(size int64) (ns, allocs float64) {
	var nss, allocss []float64
	for i := 0; i < 9; i++ {
		before := readMem()
		start := now()
		s := sim.NewScheduler()
		star := netsim.NewStar(s, 2, netsim.DefaultTopologyConfig())
		star.EnablePacketPool()
		conn := tcp.NewConn(tcp.DefaultConfig(), tcp.NewReno{}, star.Hosts[0], star.Hosts[1], 1)
		conn.Sender.Send(size)
		s.Run()
		elapsed := since(start)
		after := readMem()
		sent := conn.Sender.Stats().SentPkts
		if !conn.Sender.Done() || sent == 0 {
			panic("perf: tcp.segment driver transfer did not complete")
		}
		nss = append(nss, elapsed*1e9/float64(sent))
		allocss = append(allocss, float64(after.mallocs-before.mallocs)/float64(sent))
	}
	return median(nss), median(allocss)
}

// tcpConnSetup measures NewConn+Close over the paper's tree, returning µs
// and allocations per connection — the cost query_mix pays ~143k times.
func tcpConnSetup(conns int) (us, allocs float64) {
	s := sim.NewScheduler()
	tt := netsim.NewTwoTier(s, 3, 3, netsim.DefaultTopologyConfig())
	tt.EnablePacketPool()
	cfg := tcp.DefaultConfig()
	before := readMem()
	start := now()
	for i := 0; i < conns; i++ {
		conn := tcp.NewConn(cfg, tcp.NewReno{}, tt.Workers[i%len(tt.Workers)], tt.Aggregator, packet.FlowID(i+1))
		conn.Close()
	}
	elapsed := since(start)
	after := readMem()
	return perOp(elapsed, conns) / 1e3, float64(after.mallocs-before.mallocs) / float64(conns)
}

// workloadRound measures the incast driver's per-round overhead: N=200
// DCTCP+ flows answering 1-byte requests, so a round is requests, one
// segment and one ACK per flow, and the barrier bookkeeping.
func workloadRound(seed uint64, rounds int) float64 {
	sched, tt, _ := build(dcp.DefaultTestbed())
	in := workload.NewIncast(sched, tt, workload.IncastConfig{
		Flows:        200,
		BytesPerFlow: 1,
		Rounds:       rounds,
		Factory:      dcp.ProtoDCTCPPlus.Factory(200*sim.Millisecond, seed),
		Seed:         seed,
	})
	in.OnFinished = sched.Halt
	in.Start()
	start := now()
	sched.Run()
	elapsed := since(start)
	if !in.Finished() {
		panic("perf: workload.round driver did not finish")
	}
	return perOp(elapsed, rounds) / 1e3
}

// expRunSetup measures a whole RunIncast whose simulation is negligible
// (N=200, 2 rounds of 1 byte), i.e. the fixed cost every sweep job pays:
// median µs and allocations per call.
func expRunSetup(seed uint64, calls int) (us, allocs float64) {
	o := dcp.DefaultIncastOptions(dcp.ProtoDCTCPPlus, 200)
	o.Testbed.Seed = seed
	o.BytesPerFlow = 1
	o.Rounds = 2
	o.WarmupRounds = 0
	dcp.RunIncast(o)
	var walls, mallocs []float64
	for i := 0; i < calls; i++ {
		before := readMem()
		start := now()
		dcp.RunIncast(o)
		walls = append(walls, since(start)*1e6)
		mallocs = append(mallocs, float64(readMem().mallocs-before.mallocs))
	}
	return median(walls), median(mallocs)
}

// statsSummarize measures stats.Summarize over 10 000 seeded samples.
func statsSummarize(seed uint64, calls int) float64 {
	const n = 10_000
	rng := sim.NewRNG(seed)
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = rng.Float64() * 1e3
	}
	var sink float64
	start := now()
	for i := 0; i < calls; i++ {
		sink += stats.Summarize(samples).Mean
	}
	elapsed := since(start)
	if sink < 0 {
		panic("perf: unreachable; keeps Summarize's result live")
	}
	return perOp(elapsed, calls*n)
}

// sweepDrivers measures the sweep layer on a 64-job subset of sweep_grid
// (two seeds): a cold one-worker run for per-job wall percentiles, its
// warm replay, a cold two-worker run for pool scaling, and tight loops
// over key derivation and cache put/get.
func sweepDrivers(seed uint64, div int, tmp string, m map[string]float64) error {
	spec := sweepSpec(seed, scaled(2, div))
	coldRun := func(name string, workers int) (*dcp.SweepOutcome, *dcp.SweepCache, float64, error) {
		dir, err := freshDir(tmp, name)
		if err != nil {
			return nil, nil, 0, err
		}
		cache, err := dcp.OpenSweepCache(dir)
		if err != nil {
			return nil, nil, 0, err
		}
		r := dcp.SweepRunner{Workers: workers, Cache: cache, CodeVersion: sweepCodeVersion}
		start := now()
		out, err := r.Run(context.Background(), spec)
		return out, cache, since(start), err
	}

	one, cache, wall1, err := coldRun("sweep-1w", 1)
	if err != nil {
		return fmt.Errorf("sweep driver: %w", err)
	}
	jobMs := make([]float64, len(one.JobWallNs))
	for i, ns := range one.JobWallNs {
		jobMs[i] = float64(ns) / 1e6
	}
	m["sweep.job_ms_p50"] = percentile(jobMs, 50)
	m["sweep.job_ms_p90"] = percentile(jobMs, 90)

	warm := dcp.SweepRunner{Workers: 1, Cache: cache, CodeVersion: sweepCodeVersion, Resume: true}
	start := now()
	replay, err := warm.Run(context.Background(), spec)
	if err != nil {
		return fmt.Errorf("sweep driver warm replay: %w", err)
	}
	m["sweep.warm_replay_ms"] = since(start) * 1e3
	m["sweep.hit_ratio"] = float64(replay.Hits) / float64(replay.Jobs)

	_, _, wall2, err := coldRun("sweep-2w", 2)
	if err != nil {
		return fmt.Errorf("sweep driver: %w", err)
	}
	m["sweep.scaling_2w"] = wall1 / wall2

	// Key derivation and cache I/O, over the results the cold run produced.
	iters := scaled(20_000, div)
	start = now()
	for i := 0; i < iters; i++ {
		if one.Results[i%len(one.Results)].Point.Key(sweepCodeVersion) == "" {
			panic("perf: empty cache key")
		}
	}
	m["sweep.key_us"] = perOp(since(start), iters) / 1e3

	dir, err := freshDir(tmp, "sweep-io")
	if err != nil {
		return err
	}
	store, err := sweep.OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		return err
	}
	keys := make([]string, scaled(512, div))
	for i := range keys {
		pt := one.Results[i%len(one.Results)].Point
		pt.FaultSeed = uint64(i + 1) // distinct keys, so every Put creates an object
		keys[i] = pt.Key(sweepCodeVersion)
	}
	start = now()
	for i, key := range keys {
		if err := store.Put(key, one.Results[i%len(one.Results)]); err != nil {
			return fmt.Errorf("sweep driver put: %w", err)
		}
	}
	m["sweep.cache_put_us"] = perOp(since(start), len(keys)) / 1e3
	start = now()
	for _, key := range keys {
		if _, ok, err := store.Get(key); err != nil || !ok {
			return fmt.Errorf("sweep driver get %s: hit=%v err=%v", key, ok, err)
		}
	}
	m["sweep.cache_get_us"] = perOp(since(start), len(keys)) / 1e3
	return nil
}

// attachOverhead measures what one observer family costs: the
// incast_observed shape at reduced length, bare, then with only the
// telemetry registry, then with only the oracle, each as extra wall over
// the bare run.
func attachOverhead(seed uint64, rounds int) (telemetryShare, oracleShare float64) {
	run := func(withRegistry, withOracle bool) float64 {
		o := observedOptions(seed, rounds, withOracle, false)
		if withRegistry {
			o.Telemetry = dcp.NewRegistry()
		}
		start := now()
		dcp.RunIncast(o)
		return since(start)
	}
	bare := run(false, false)
	return (run(true, false) - bare) / bare, (run(false, true) - bare) / bare
}

// lintPass measures the calls cmd/simlint makes — load, type-check and run
// the whole analyzer suite — on the live module, normalised per source
// line because the input grows with the repository.
func lintPass(m map[string]float64) error {
	start := now()
	loader, err := lint.NewLoader(".")
	if err != nil {
		return fmt.Errorf("lint driver: %w", err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		return fmt.Errorf("lint driver: %w", err)
	}
	lint.Run(pkgs, lint.All())
	elapsed := since(start)
	lines := 0
	for _, p := range pkgs {
		for _, f := range p.Files {
			lines += p.Fset.File(f.Pos()).LineCount()
		}
	}
	m["lint.pass_s"] = elapsed
	m["lint.lines"] = float64(lines)
	m["lint.us_per_line"] = elapsed * 1e6 / float64(lines)
	return nil
}
