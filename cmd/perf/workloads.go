package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"

	dcp "dctcpplus"
	"dctcpplus/internal/stats"
)

// kind selects which public-facade entry point a workload drives.
type kind int

const (
	kindIncast kind = iota // dctcpplus.RunIncast
	kindMix                // dctcpplus.RunBenchmark
	kindSweep              // dctcpplus.SweepRunner.Run
)

// workloadDef names one benchmark workload and why it exists. The why text
// is the one BENCHMARK.json and the README carry: each workload pins one
// operating point of the layer stack, so an optimisation has one workload
// that exercises its mechanism and one that bypasses it.
type workloadDef struct {
	name string
	why  string
	// gen builds the generated inputs — the only thing the program under
	// test receives — from the seed, at 1/div of full size.
	gen func(seed uint64, div int) plan
}

// plan is one workload's generated input. Exactly one of the option fields
// is meaningful, selected by kind.
type plan struct {
	kind   kind
	incast dcp.IncastOptions
	mix    dcp.BenchmarkOptions
	sweep  dcp.SweepSpec
	// observed marks the incast_observed shape: a telemetry registry is
	// attached (fresh per call) beside the oracle and the trace samplers.
	observed bool
}

// sweepCodeVersion scopes the benchmark's cache keys. A fixed string keeps
// sweep.CodeVersion() — which shells out to git — off the timed path and
// makes keys identical inside and outside a git checkout.
const sweepCodeVersion = "perf"

func scaled(n, div int) int {
	if n /= div; n < 1 {
		return 1
	}
	return n
}

var workloads = []workloadDef{
	{
		name: "incast_massive",
		why:  "N=2000 DCTCP+ incast, 16 KiB/flow: deep event heap and ~500k RTOs, so timer cancel/re-arm and deep-heap cost dominate",
		gen: func(seed uint64, div int) plan {
			o := dcp.DefaultIncastOptions(dcp.ProtoDCTCPPlus, 2000)
			o.Testbed.Seed = seed
			o.BytesPerFlow = 16 << 10
			o.Rounds = scaled(100, div)
			o.WarmupRounds = o.Rounds / 5
			o.RTOMin = 200 * dcp.Millisecond
			return plan{kind: kindIncast, incast: o}
		},
	},
	{
		name: "incast_bulk",
		why:  "N=8 DCTCP, 16 MiB/flow: shallow heap, zero timeouts, core bypassed; pure per-packet netsim/tcp forwarding, where timer and conn-setup changes must show no move",
		gen: func(seed uint64, div int) plan {
			o := dcp.DefaultIncastOptions(dcp.ProtoDCTCP, 8)
			o.Testbed.Seed = seed
			o.BytesPerFlow = 16 << 20
			// 64 rounds x 16 MiB = 1 GiB per flow, below the Seq32 wrap.
			o.Rounds = scaled(64, div)
			o.WarmupRounds = o.Rounds / 5
			return plan{kind: kindIncast, incast: o}
		},
	},
	{
		name: "query_mix",
		why:  "DCTCP+ query/background/short mix at 2x paper scale: ~143k short-lived connections set up and retired beside ~31k pre-scheduled arrivals, so setup/teardown allocation shows",
		gen: func(seed uint64, div int) plan {
			o := dcp.DefaultBenchmarkOptions(dcp.ProtoDCTCPPlus)
			o.Testbed.Seed = seed
			o.RTOMin = 10 * dcp.Millisecond
			o.Traffic.Queries = scaled(14000, div)
			o.Traffic.BackgroundFlows = scaled(14000, div)
			o.Traffic.ShortFlows = scaled(3500, div)
			// cmd/benchmark's default cap on the Pareto tail.
			o.Traffic.BackgroundMaxBytes = 10 << 20
			return plan{kind: kindMix, mix: o}
		},
	},
	{
		name: "sweep_grid",
		why:  "768 tiny sweep jobs on one worker with a fresh cache: short event loops on shallow heaps plus per-job fixed cost (run setup, stats, encode, sha256 key, cache write, manifest, aggregation)",
		gen: func(seed uint64, div int) plan {
			return plan{kind: kindSweep, sweep: sweepSpec(seed, scaled(24, div))}
		},
	},
	{
		name: "incast_observed",
		why:  "N=200 DCTCP+ incast with telemetry registry, oracle, cwnd probes and queue sampler attached: the only workload that pays for every observer; the other four run nil sinks",
		gen: func(seed uint64, div int) plan {
			return plan{kind: kindIncast, incast: observedOptions(seed, scaled(300, div), true, true), observed: true}
		},
	},
}

// sweepSpec is the sweep_grid shape over the given number of seeds
// (seed … seed+seeds-1): 4 protocols × 4 flow counts × 2 RTOmin × seeds.
func sweepSpec(seed uint64, seeds int) dcp.SweepSpec {
	spec := dcp.SweepSpec{
		Name:         "perf-grid",
		Protocols:    []string{"tcp", "dctcp", "dctcp+", "d2tcp+"},
		Flows:        []int{10, 20, 40, 80},
		RTOMins:      []dcp.Duration{10 * dcp.Millisecond, 200 * dcp.Millisecond},
		Rounds:       10,
		WarmupRounds: 2,
	}
	for i := 0; i < seeds; i++ {
		spec.Seeds = append(spec.Seeds, seed+uint64(i))
	}
	return spec
}

// observedOptions is the incast_observed shape; the attach-overhead driver
// reuses it with one observer family switched off at a time. Telemetry is
// attached by the caller (plan.observed), a fresh registry per run.
func observedOptions(seed uint64, rounds int, oracleOn, probesOn bool) dcp.IncastOptions {
	o := dcp.DefaultIncastOptions(dcp.ProtoDCTCPPlus, 200)
	o.Testbed.Seed = seed
	o.TotalBytes = 8 << 20
	o.Rounds = rounds
	o.WarmupRounds = rounds / 5
	o.Oracle = oracleOn
	if probesOn {
		o.CollectCwnd = true
		o.QueueSampleEvery = 100 * dcp.Microsecond
	}
	return o
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// facts is what one run — facade or twin — produced, reduced to what the
// output checks and the digest need. Ops counts the closed-loop operations
// requested (incast rounds, mix transactions, sweep jobs), Done those that
// completed.
type facts struct {
	Ops  int `json:"ops"`
	Done int `json:"done"`

	SimTime  dcp.Duration `json:"sim_time_ns"`
	Timeouts int64        `json:"timeouts"`
	Drops    int64        `json:"drops"`

	// OracleTotal is reported, not failed on: see README, "Output checks".
	OracleTotal int64 `json:"oracle_total"`
	CacheErrs   int   `json:"cache_errs"`

	// Digest is sha256 over the simulated results bit-exact; equal digests
	// mean two runs simulated the same thing.
	Digest string `json:"sim_digest"`

	// Problems lists every failed output check; non-empty fails the run.
	Problems []string `json:"problems,omitempty"`

	// Sweep-only: the warm replay that follows the timed cold run.
	// WarmReplayS is host seconds, JobWalls host nanoseconds per job.
	WarmReplayS float64 `json:"warm_replay_s,omitempty"`
	HitRatio    float64 `json:"hit_ratio,omitempty"`
	JobWalls    []int64 `json:"-"`
}

func (f *facts) problemf(format string, args ...any) {
	f.Problems = append(f.Problems, fmt.Sprintf(format, args...))
}

// digester folds simulated results into a sha256, floats by their IEEE
// bits so "identical" means bit-identical.
type digester struct{ buf bytes.Buffer }

func (d *digester) i64(vs ...int64) {
	for _, v := range vs {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.buf.Write(b[:])
	}
}

func (d *digester) f64(vs ...float64) {
	for _, v := range vs {
		d.i64(int64(math.Float64bits(v)))
	}
}

func (d *digester) summary(s stats.Summary) {
	d.i64(s.Count)
	d.f64(s.Mean, s.Std, s.Min, s.Max, s.P50, s.P95, s.P99)
}

func (d *digester) sum() string {
	h := sha256.Sum256(d.buf.Bytes())
	return hex.EncodeToString(h[:])
}

// incastFacts reduces an incast result. rounds/warmup are what was
// requested; r.Rounds is what completed after warm-up.
func incastFacts(o dcp.IncastOptions, r dcp.IncastResult) facts {
	f := facts{
		Ops:         o.Rounds,
		Done:        r.Rounds + o.WarmupRounds,
		SimTime:     r.SimTime,
		Timeouts:    r.Timeouts,
		Drops:       r.BottleneckDrops,
		OracleTotal: r.OracleTotal,
	}
	f.Digest = jobDigest(int64(r.SimTime), r.Timeouts, r.FLossTO, r.LAckTO, r.BottleneckDrops, r.GoodputMbps, r.FCTms)
	if f.Done != f.Ops {
		f.problemf("completed %d of %d rounds", f.Done, f.Ops)
	}
	return f
}

// jobDigest is the digest of one incast run: virtual time consumed,
// timeouts and their FLoss/LAck split, bottleneck drops, and the goodput
// and FCT summaries. A sweep's digest chains its jobs' digests in order.
func jobDigest(simTime, timeouts, floss, lack, drops int64, goodput, fct stats.Summary) string {
	var d digester
	d.i64(simTime, timeouts, floss, lack, drops)
	d.summary(goodput)
	d.summary(fct)
	return d.sum()
}

func mixFacts(o dcp.BenchmarkOptions, r dcp.BenchmarkResult) facts {
	f := facts{
		Ops:      o.Traffic.Queries + o.Traffic.ShortFlows + o.Traffic.BackgroundFlows,
		Done:     r.Queries + r.Short + r.Background,
		Timeouts: r.Timeouts,
	}
	var d digester
	d.i64(r.Timeouts)
	d.summary(r.QueryFCTms)
	d.summary(r.ShortFCTms)
	d.summary(r.BackgroundFCTms)
	f.Digest = d.sum()
	if f.Done != f.Ops {
		f.problemf("completed %d of %d transactions", f.Done, f.Ops)
	}
	return f
}

// sweepFacts reduces a sweep outcome; the digest covers every job's
// result in job order.
func sweepFacts(out *dcp.SweepOutcome, err error) facts {
	var f facts
	if out == nil {
		f.Ops = 1
		f.problemf("sweep did not run: %v", err)
		return f
	}
	f.Ops = out.Jobs
	f.Done = out.Completed()
	f.CacheErrs = out.CacheErrs
	f.JobWalls = out.JobWallNs
	var d digester
	for _, r := range out.Results {
		d.buf.WriteString(jobDigest(int64(r.SimTime), r.Timeouts, r.FLossTO, r.LAckTO, r.BottleneckDrops, r.GoodputMbps, r.FCTms))
		f.SimTime += r.SimTime
		f.Timeouts += r.Timeouts
		f.Drops += r.BottleneckDrops
	}
	f.Digest = d.sum()
	if err != nil {
		f.problemf("sweep: %v", err)
	}
	if f.Done != f.Ops {
		f.problemf("completed %d of %d jobs", f.Done, f.Ops)
	}
	if out.CacheErrs != 0 {
		f.problemf("%d cache errors", out.CacheErrs)
	}
	return f
}

// facadeRun is one closed-loop call into the public facade: the timed
// region of every repetition. dir is the scratch directory a sweep's cache
// lives in; the caller hands each call a fresh one so the run is cold.
// The returned check performs the output checks that cost time of their
// own (the sweep's warm replay) outside the timed region.
func (p plan) facadeRun(dir string) (facts, func(*facts)) {
	switch p.kind {
	case kindIncast:
		o := p.incast
		if p.observed {
			o.Telemetry = dcp.NewRegistry()
		}
		return incastFacts(o, dcp.RunIncast(o)), func(*facts) {}
	case kindMix:
		return mixFacts(p.mix, dcp.RunBenchmark(p.mix)), func(*facts) {}
	case kindSweep:
		cache, err := dcp.OpenSweepCache(dir)
		if err != nil {
			return sweepFacts(nil, err), func(*facts) {}
		}
		r := dcp.SweepRunner{Workers: 1, Cache: cache, CodeVersion: sweepCodeVersion}
		out, err := r.Run(context.Background(), p.sweep)
		return sweepFacts(out, err), func(f *facts) { p.checkWarmReplay(cache, out, f) }
	}
	panic("perf: unknown workload kind")
}

// checkWarmReplay re-runs the sweep against the cache the cold run filled:
// every job must be a hit and the rendered aggregate table byte-identical.
func (p plan) checkWarmReplay(cache *dcp.SweepCache, cold *dcp.SweepOutcome, f *facts) {
	if cold == nil {
		return
	}
	r := dcp.SweepRunner{Workers: 1, Cache: cache, CodeVersion: sweepCodeVersion, Resume: true}
	start := now()
	warm, err := r.Run(context.Background(), p.sweep)
	f.WarmReplayS = since(start)
	if err != nil {
		f.problemf("warm replay: %v", err)
		return
	}
	f.HitRatio = float64(warm.Hits) / float64(warm.Jobs)
	if warm.Hits != warm.Jobs {
		f.problemf("warm replay hit %d of %d jobs", warm.Hits, warm.Jobs)
	}
	var a, b bytes.Buffer
	if err := dcp.WriteSweepGroups(&a, cold.Groups); err != nil {
		f.problemf("render cold groups: %v", err)
	}
	if err := dcp.WriteSweepGroups(&b, warm.Groups); err != nil {
		f.problemf("render warm groups: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		f.problemf("warm replay table differs from the cold run's")
	}
}

// freshDir makes an empty scratch directory under root for one sweep run.
func freshDir(root, name string) (string, error) {
	dir := filepath.Join(root, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
