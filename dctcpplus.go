// Package dctcpplus is a packet-level reproduction of "Slowing Little
// Quickens More: Improving DCTCP for Massive Concurrent Flows" (Miao,
// Cheng, Ren, Shu — ICPP 2015).
//
// The paper's artifact is a Linux-kernel congestion-control patch
// evaluated on a physical incast testbed. This library rebuilds the whole
// stack as a deterministic discrete-event simulation: an event engine, a
// 2-tier GbE topology with ECN-marking shared-buffer switches, a TCP
// NewReno engine with pluggable congestion control, DCTCP, and DCTCP+ —
// the paper's contribution: when the congestion window is pinned at its
// floor and ECN feedback keeps arriving, regulate the sending *time
// interval* (slow_time) with randomized AIMD backoff to both slow down and
// desynchronize massive concurrent flows.
//
// This package is the public facade: protocol selection, experiment
// configuration, and runners for every figure and table in the paper's
// evaluation. The building blocks live under internal/ (see DESIGN.md for
// the system inventory):
//
//	internal/sim      discrete-event engine (clock, scheduler, RNG)
//	internal/packet   segment model with ECN codepoints
//	internal/netsim   links, ECN switches, hosts, topologies
//	internal/tcp      TCP engine: NewReno, RTO taxonomy, ECN echo modes
//	internal/dctcp    DCTCP congestion module (alpha estimator)
//	internal/core     DCTCP+ (Fig. 4 state machine, Algorithm 1)
//	internal/workload incast / background / production-benchmark traffic
//	internal/stats    summaries, CDFs, histograms
//	internal/trace    cwnd probes and queue samplers
//	internal/exp      incast/benchmark runners and the battery catalogue
//	internal/sweep    grid orchestration: worker pool, result cache, resume
//
// # Quick start
//
//	opts := dctcpplus.DefaultIncastOptions(dctcpplus.ProtoDCTCPPlus, 100)
//	res := dctcpplus.RunIncast(opts)
//	fmt.Printf("N=100 goodput %.0f Mbps, FCT %.1f ms\n",
//	    res.GoodputMbps.Mean, res.FCTms.Mean)
//
// Every run is a pure function of its options (seeded randomness, virtual
// time only), so results are exactly reproducible.
package dctcpplus

import (
	"io"

	"dctcpplus/internal/core"
	"dctcpplus/internal/exp"
	"dctcpplus/internal/fault"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/sweep"
	"dctcpplus/internal/sweep/pool"
	"dctcpplus/internal/telemetry"
)

// Protocol selects a transport variant under evaluation.
type Protocol = exp.Protocol

// The protocol variants. See the exp package for details.
const (
	// ProtoTCP is plain TCP NewReno without ECN.
	ProtoTCP = exp.ProtoTCP
	// ProtoDCTCP is DCTCP with the standard 2-MSS window floor.
	ProtoDCTCP = exp.ProtoDCTCP
	// ProtoDCTCPMin1 is DCTCP with a 1-MSS floor (footnote-3 control).
	ProtoDCTCPMin1 = exp.ProtoDCTCPMin1
	// ProtoDCTCPPlus is the full DCTCP+.
	ProtoDCTCPPlus = exp.ProtoDCTCPPlus
	// ProtoDCTCPPlusPartial is DCTCP+ without desynchronization (Fig. 6).
	ProtoDCTCPPlusPartial = exp.ProtoDCTCPPlusPartial
	// ProtoRenoPlus is Reno-ECN plus the enhancement mechanism (§VII).
	ProtoRenoPlus = exp.ProtoRenoPlus
	// ProtoD2TCP is Deadline-Aware DCTCP with mixed per-flow urgencies.
	ProtoD2TCP = exp.ProtoD2TCP
	// ProtoD2TCPPlus is D2TCP plus the enhancement mechanism (§VII).
	ProtoD2TCPPlus = exp.ProtoD2TCPPlus
)

// Protocols lists every variant in display order.
var Protocols = exp.Protocols

// ParseProtocol maps a protocol name back to its value.
func ParseProtocol(s string) (Protocol, error) { return exp.ParseProtocol(s) }

// Duration re-exports the virtual-time duration type used in options.
type Duration = sim.Duration

// Common virtual-time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Experiment configuration and results.
type (
	// Testbed describes the simulated cluster.
	Testbed = exp.Testbed
	// IncastOptions parameterizes one incast run (Figs. 1/2/6/7/8/9/14,
	// Table I); with BackgroundFlows set it is the §VI-C incast + long
	// flows (Figs. 10-12).
	IncastOptions = exp.IncastOptions
	// IncastResult is one incast experiment point, long-flow numbers
	// included when the run had background flows.
	IncastResult = exp.IncastResult
	// BenchmarkOptions parameterizes the production benchmark mix (Fig. 13).
	BenchmarkOptions = exp.BenchmarkOptions
	// BenchmarkResult holds the Fig. 13 rows.
	BenchmarkResult = exp.BenchmarkResult
)

// DefaultTestbed returns the paper's cluster parameters (9 workers + 1
// aggregator, 1Gbps links, 128KB port buffers, K=32KB).
func DefaultTestbed() Testbed { return exp.DefaultTestbed() }

// HULLTestbed returns the cluster with HULL phantom-queue marking instead
// of the DCTCP threshold (the §VII composition with HULL).
func HULLTestbed() Testbed { return exp.HULLTestbed() }

// DefaultIncastOptions returns §VI-B basic-incast settings for protocol p
// with N concurrent flows.
func DefaultIncastOptions(p Protocol, flows int) IncastOptions {
	return exp.DefaultIncastOptions(p, flows)
}

// DefaultBenchmarkOptions returns §VI-D benchmark-traffic settings.
func DefaultBenchmarkOptions(p Protocol) BenchmarkOptions {
	return exp.DefaultBenchmarkOptions(p)
}

// RunIncast executes one incast experiment point — the one runner behind
// every incast figure, background long flows, faults and oracle included.
func RunIncast(o IncastOptions) IncastResult { return exp.RunIncast(o) }

// RunMany executes a batch of incast points on separate goroutines — the
// one fan-out. Each point is an independent deterministic simulation, so
// results are positionally identical to a RunIncast loop.
func RunMany(optList []IncastOptions) []IncastResult { return exp.RunMany(optList) }

// Sweep orchestration (internal/sweep): declare a parameter grid as a
// SweepSpec, run it with a SweepRunner, and get cross-seed streaming
// aggregates plus a content-addressed cache that lets identical points be
// reused across runs and interrupted sweeps resume.
type (
	// SweepSpec declares a sweep as a cross product of grid dimensions.
	SweepSpec = sweep.Spec
	// SweepJob is one expanded grid point with its position.
	SweepJob = sweep.Job
	// SweepResult is the cacheable outcome of one job.
	SweepResult = sweep.Result
	// SweepRunner executes sweeps over a bounded worker pool.
	SweepRunner = sweep.Runner
	// SweepOutcome is the full accounting of one sweep run.
	SweepOutcome = sweep.Outcome
	// SweepGroup is the cross-seed aggregate of one experiment point.
	SweepGroup = sweep.Group
	// SweepCache is the content-addressed on-disk result store.
	SweepCache = sweep.Cache
)

// OpenSweepCache opens (creating if needed) a sweep result cache at dir.
func OpenSweepCache(dir string) (*SweepCache, error) { return sweep.OpenCache(dir) }

// LargeNSweepSpec returns the massive-concurrency scenario (N=100..2000,
// DCTCP+ vs DCTCP) behind EXPERIMENTS.md's large-N table.
func LargeNSweepSpec() SweepSpec { return sweep.LargeNSpec() }

// WriteSweepGroups renders the cross-seed aggregate table.
func WriteSweepGroups(w io.Writer, groups []*SweepGroup) error {
	return sweep.WriteGroups(w, groups)
}

// SweepOracleReport folds the conformance-oracle outcome of a completed
// sweep: the total violation count plus one rendered block per violating
// point (identity, then sampled violations with their minimized event
// windows). (0, nil) means the sweep ran oracle-clean.
func SweepOracleReport(results []SweepResult) (total int64, lines []string) {
	return sweep.OracleReport(results)
}

// DefaultSweepWorkers is the worker-pool width used when a runner's
// Workers field (or a command's -jobs flag) is left at its default: one
// worker per available CPU.
func DefaultSweepWorkers() int { return pool.DefaultWorkers() }

// SetParallelism sets the worker count RunMany (and so every Figure) fans
// out to (a command's -jobs flag lands here). Width changes wall-clock
// time only, never results.
func SetParallelism(n int) { exp.Parallelism = n }

// RunBenchmark executes the production benchmark-traffic experiment.
func RunBenchmark(o BenchmarkOptions) BenchmarkResult { return exp.RunBenchmark(o) }

// EnhancementConfig parameterizes the DCTCP+ mechanism itself (backoff
// unit, divisor, threshold, desynchronization) for ablation studies: point
// IncastOptions.Enhancement at one to run ProtoDCTCPPlus with it.
type EnhancementConfig = core.Config

// DefaultEnhancementConfig returns the calibrated DCTCP+ parameters.
func DefaultEnhancementConfig() EnhancementConfig { return core.DefaultConfig() }

// Observability: set IncastOptions.Telemetry (or Scale.Telemetry for the
// figure specs) to a Registry and every hot layer of the run — switch
// ports, senders, congestion control, workload — records its events there.
// Snapshot the registry after the run and export it as JSON lines; see
// README's "Observability" section.
type (
	// Registry collects named, label-keyed instruments. A registry's
	// instruments belong to one goroutine; each run of a parallel sweep
	// fills its own and merges it into the shared one (Registry.Merge), so
	// one registry serves parallel sweeps. A nil *Registry is a valid
	// no-op sink.
	Registry = telemetry.Registry
	// MetricLabel is one key=value pair of an instrument's identity.
	MetricLabel = telemetry.Label
	// MetricsSnapshot is a point-in-time dump of a registry, exported with
	// WriteJSONLines.
	MetricsSnapshot = telemetry.Snapshot
	// Manifest is the machine-readable record of one run (config, seed,
	// code version, wall/sim time, instrument dump).
	Manifest = telemetry.Manifest
)

// NewRegistry returns an empty telemetry registry.
func NewRegistry() *Registry { return telemetry.NewRegistry() }

// NewManifest starts a run manifest, capturing wall clock, git state and
// toolchain version.
func NewManifest(name string, seed uint64) *Manifest { return telemetry.NewManifest(name, seed) }

// WriteManifestFile atomically writes a manifest to path.
func WriteManifestFile(path string, m *Manifest) error { return telemetry.WriteManifestFile(path, m) }

// Fault injection: deterministic, schedulable pathologies composed with
// any incast run — link blackouts, seeded random loss, rate/delay
// degradation, switch buffer carving, host stalls (see DESIGN.md's fault
// model). Set IncastOptions.Faults to a FaultGenConfig and the run injects
// the generated plan at its virtual times; the run stays a pure function
// of options + seed. NewResilience is the EXPERIMENTS.md resilience table.
type (
	// FaultClass names a family of faults: blackout, loss, rate, delay,
	// buffer, stall.
	FaultClass = fault.Class
	// FaultGenConfig parameterizes the seeded fault-plan generator.
	FaultGenConfig = fault.GenConfig
	// FaultStats totals what a fault plan did to a run.
	FaultStats = fault.Stats
)

// DefaultFaultGenConfig returns the moderate fault mix (two 10ms-scale
// episodes per class in [20ms, 220ms)) under the given seed.
func DefaultFaultGenConfig(seed uint64) FaultGenConfig { return fault.DefaultGenConfig(seed) }

// AllFaultClasses lists every fault class in declaration order.
func AllFaultClasses() []FaultClass { return fault.AllClasses() }

// ParseFaultClasses resolves a comma-separated fault-class list ("all" or
// "" selects every class).
func ParseFaultClasses(s string) ([]FaultClass, error) { return fault.ParseClasses(s) }

// The evaluation as a catalogue: Battery lists every entry — the paper's
// figures, the §V-D ablations and compositions, the resilience table — in
// paper order. An entry is a heading, an explicit list of points and a
// renderer: inspect or replace Points, Run, then Render the rows the paper
// reports. cmd/report runs the whole list, or with -only the entries named.
type (
	// Scale applies common run-length settings to catalogue entries.
	Scale = exp.Scale
	// Section is the surface every battery entry shares: Head, Check, Run,
	// Render, Incast.
	Section = exp.Section
	// Figure is an incast entry: Points run through RunMany, with the
	// entry's renderer.
	Figure = exp.Figure
	// Resilience is the clean-vs-faulted, per-fault-class table.
	Resilience = exp.Resilience
)

// Battery returns the whole evaluation in paper order at the given scale.
func Battery(sc Scale) []Section { return exp.Battery(sc) }

// OracleReport folds an entry's conformance outcome: total violations plus
// rendered lines for the violating points.
func OracleReport(label string, results []IncastResult) (total int64, lines []string) {
	return exp.OracleReport(label, results)
}
