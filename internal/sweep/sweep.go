// Package sweep is the experiment-orchestration layer: it expands a
// declarative parameter grid (protocol × concurrent flows × RTOmin × seed ×
// fault plan × topology) into deterministic, individually seeded jobs, runs
// them on a bounded worker pool with per-worker isolated simulations, folds
// the results into running cross-seed accumulators (internal/stats), and
// memoizes every completed job in a content-addressed on-disk cache so
// re-runs and crash-resumes skip finished work.
//
// The determinism contract mirrors the rest of the repository: a job is a
// pure function of its Point, so the sweep's results — and the rendered
// aggregate tables — are byte-identical across runs, across worker counts,
// and across cache hits vs. fresh executions. Workers fill per-job slots;
// aggregation folds them in job-index order after the pool returns, never
// in completion order, which is what keeps the IEEE-float accumulators
// stable under concurrency.
//
// Layout:
//
//	sweep.go     Spec (the grid), Point (one job's identity), expansion
//	cache.go     content-addressed result store, hash(point ‖ code-version)
//	manifest.go  per-sweep journal for audit and resume accounting
//	runner.go    worker pool, then the in-order fold: groups, journal, telemetry
//	aggregate.go cross-seed group aggregation and rendering
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"dctcpplus/internal/exp"
	"dctcpplus/internal/fault"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/telemetry"
)

// Spec declares a sweep as a cross-product over the grid dimensions plus
// the scalar run settings every point shares. Empty dimensions default to a
// single canonical value (see normalized), so the zero Spec with a Name is
// already runnable.
type Spec struct {
	// Name identifies the sweep in manifests and telemetry labels.
	Name string

	// Grid dimensions. The expansion order is fixed: topology, protocol,
	// flows, RTOmin, fault plan, seed — seeds innermost, so the replicates
	// of one experiment point occupy consecutive job indices and stream
	// into the aggregator back to back.
	Topos     []string       // "default" or "hull"; nil = {"default"}
	Protocols []string       // exp protocol names; nil = {"dctcp+"}
	Flows     []int          // concurrent flow counts; nil = {40}
	RTOMins   []sim.Duration // nil = {200ms}
	Faults    []string       // fault-class lists ("" = clean, "all", "loss,delay"); nil = {""}
	Seeds     []uint64       // nil = {1}

	// Scalar settings shared by every point.
	Rounds       int          // rounds per point; 0 = 50
	WarmupRounds int          // excluded from statistics; 10 when Rounds is also 0
	TotalBytes   int64        // split across flows; 0 = 1MB
	BytesPerFlow int64        // overrides the TotalBytes split when > 0
	Jitter       sim.Duration // worker service jitter; 0 = 4ms
	FaultSeed    uint64       // fault-plan generator seed; 0 = 1
	MaxSimTime   sim.Duration // per-job virtual-time bound; 0 = 30 sim-minutes
	Oracle       bool         // attach the conformance checker to every job
}

// normalized returns the spec with every empty dimension and zero scalar
// replaced by its default — exp.DefaultIncastOptions' where the harness has
// one — so expansion and hashing always see the explicit form.
func (s Spec) normalized() Spec {
	def := exp.DefaultIncastOptions(exp.ProtoDCTCPPlus, 40)
	if s.Name == "" {
		s.Name = "sweep"
	}
	if len(s.Topos) == 0 {
		s.Topos = []string{TopoDefault}
	}
	if len(s.Protocols) == 0 {
		s.Protocols = []string{def.Protocol.String()}
	}
	if len(s.Flows) == 0 {
		s.Flows = []int{def.Flows}
	}
	if len(s.RTOMins) == 0 {
		s.RTOMins = []sim.Duration{def.RTOMin}
	}
	if len(s.Faults) == 0 {
		s.Faults = []string{""}
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []uint64{def.Testbed.Seed}
	}
	// A warm-up of 0 is a real setting once Rounds is given: only a spec
	// that leaves both unset gets the default warm-up.
	if s.Rounds == 0 {
		s.Rounds = def.Rounds
		if s.WarmupRounds == 0 {
			s.WarmupRounds = def.WarmupRounds
		}
	}
	if s.TotalBytes == 0 {
		s.TotalBytes = def.TotalBytes
	}
	if s.Jitter == 0 {
		s.Jitter = def.Testbed.ServiceJitter
	}
	if s.FaultSeed == 0 {
		s.FaultSeed = 1
	}
	if s.MaxSimTime == 0 {
		s.MaxSimTime = def.MaxSimTime
	}
	return s
}

// Topology names accepted by Spec.Topos and Point.Topo.
const (
	TopoDefault = "default"
	TopoHULL    = "hull"
)

// LargeNSpec is the massive-concurrency scenario behind EXPERIMENTS.md's
// large-N table: DCTCP+ against DCTCP from N=100 to N=2000 concurrent
// flows — an order of magnitude past the paper's 200-flow testbed ceiling,
// which only a simulator (and a sweep that caches its 24 points) reaches
// comfortably. Per-flow bytes are fixed rather than a shared budget so the
// offered load grows with N, and two seeds feed the cross-seed aggregates.
func LargeNSpec() Spec {
	return Spec{
		Name:         "large-n",
		Protocols:    []string{"dctcp+", "dctcp"},
		Flows:        []int{100, 200, 500, 1000, 1500, 2000},
		Seeds:        []uint64{1, 2},
		Rounds:       8,
		WarmupRounds: 2,
		BytesPerFlow: 16 << 10,
	}
}

// Validate rejects specs that cannot expand into runnable jobs, naming the
// first offending value: it is Expand without the job list.
func (s Spec) Validate() error {
	_, err := s.Expand()
	return err
}

// Expand validates the spec and returns its deterministic job list: the
// full cross-product in the fixed dimension order, indices dense from 0.
// The spec checks only its name and fault lists; every point must then pass
// Point.Options, which holds it to the harness's own rule.
func (s Spec) Expand() ([]Job, error) {
	n := s.normalized()
	// The name becomes a file name inside the cache directory
	// (manifestPath), so a separator or ".." would put the journal outside.
	if n.Name == "." || n.Name == ".." || strings.ContainsAny(n.Name, `/\`) {
		return nil, fmt.Errorf("sweep: name %q is not a single path element (it names the manifest file inside the cache directory)", n.Name)
	}
	faults := make([]string, len(n.Faults))
	for i, fs := range n.Faults {
		var err error
		if faults[i], err = canonicalFaults(fs); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
	}
	jobs := make([]Job, 0,
		len(n.Topos)*len(n.Protocols)*len(n.Flows)*len(n.RTOMins)*len(faults)*len(n.Seeds))
	for _, topo := range n.Topos {
		for _, proto := range n.Protocols {
			for _, flows := range n.Flows {
				for _, rto := range n.RTOMins {
					for _, plan := range faults {
						for _, seed := range n.Seeds {
							j := Job{Index: len(jobs), Point: Point{
								Topo:         topo,
								Proto:        proto,
								Flows:        flows,
								RTOMin:       rto,
								Faults:       plan,
								Seed:         seed,
								FaultSeed:    n.FaultSeed,
								Rounds:       n.Rounds,
								WarmupRounds: n.WarmupRounds,
								TotalBytes:   n.TotalBytes,
								BytesPerFlow: n.BytesPerFlow,
								Jitter:       n.Jitter,
								MaxSimTime:   n.MaxSimTime,
								Oracle:       n.Oracle,
							}}
							if _, err := j.Point.Options(); err != nil {
								return nil, fmt.Errorf("sweep: %s: %w", j.label(), err)
							}
							jobs = append(jobs, j)
						}
					}
				}
			}
		}
	}
	return jobs, nil
}

// Hash is the spec-level identity: the hash of the normalized spec's
// canonical JSON. Two specs that expand to the same job list share it.
func (s Spec) Hash() string {
	data, err := json.Marshal(s.normalized())
	if err != nil {
		// Spec is a plain struct of scalars and slices; Marshal cannot fail.
		panic(fmt.Sprintf("sweep: marshal spec: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// canonicalFaults normalizes a fault-class spec so equivalent spellings
// ("all", "loss, delay", "delay,loss") key the same cached results.
func canonicalFaults(spec string) (string, error) {
	if spec == "" {
		return "", nil
	}
	classes, err := fault.ParseClasses(spec)
	if err != nil {
		return "", err
	}
	names := make([]string, len(classes))
	for i, c := range classes {
		names[i] = c.String()
	}
	sort.Strings(names)
	return strings.Join(names, ","), nil
}

// Point is the complete, self-describing identity of one job: everything
// the run depends on, and nothing else. Its canonical JSON (combined with
// the code version) is the cache key, so field set and order are part of
// the on-disk format — extend with care and bump Runner.CodeVersion
// semantics when a change alters results.
//
// The completeness half is machine-checked: TestPointKeyCoversEveryField
// changes each field alone and requires Key to move, so a new field that
// silently misses the digest (unexported, or tagged json:"-") fails the
// test instead of aliasing distinct experiments onto one cache entry.
type Point struct {
	Topo         string       `json:"topo"`
	Proto        string       `json:"proto"`
	Flows        int          `json:"flows"`
	RTOMin       sim.Duration `json:"rtomin_ns"`
	Faults       string       `json:"faults,omitempty"`
	FaultSeed    uint64       `json:"fault_seed,omitempty"`
	Seed         uint64       `json:"seed"`
	Rounds       int          `json:"rounds"`
	WarmupRounds int          `json:"warmup"`
	TotalBytes   int64        `json:"total_bytes"`
	BytesPerFlow int64        `json:"bytes_per_flow,omitempty"`
	Jitter       sim.Duration `json:"jitter_ns"`
	MaxSimTime   sim.Duration `json:"max_sim_ns"`
	// Oracle runs the job under the conformance checker. It is part of the
	// cache key: an oracle run drains extra virtual time, so its SimTime
	// differs from the plain run's.
	Oracle bool `json:"oracle,omitempty"`
}

// Job is one expanded grid point, positioned in the sweep's deterministic
// order.
type Job struct {
	Index int
	Point Point
}

// label names the job in errors by index and grid coordinates.
func (j Job) label() string {
	pt := j.Point
	return fmt.Sprintf("job %d (%s, N=%d, RTOmin %v, seed %d)", j.Index, pt.Proto, pt.Flows, pt.RTOMin, pt.Seed)
}

// Key returns the job's content address: hash(point ‖ code-version). Two
// jobs share a key exactly when they would produce identical results under
// the same build.
func (pt Point) Key(codeVersion string) string {
	data, err := json.Marshal(pt)
	if err != nil {
		panic(fmt.Sprintf("sweep: marshal point: %v", err))
	}
	h := sha256.New()
	h.Write(data)
	h.Write([]byte{0})
	h.Write([]byte(codeVersion))
	return hex.EncodeToString(h.Sum(nil))
}

// GroupKey returns the point's seed-normalized identity: the canonical JSON
// with Seed and FaultSeed zeroed. Jobs sharing a GroupKey are replicates of
// one experiment point and aggregate together.
func (pt Point) GroupKey() string {
	pt.Seed = 0
	pt.FaultSeed = 0
	data, err := json.Marshal(pt)
	if err != nil {
		panic(fmt.Sprintf("sweep: marshal point: %v", err))
	}
	return string(data)
}

// Options maps the point onto the experiment harness and checks the result
// with exp.IncastOptions.Validate. Expand holds every point it produces to
// it, so the points of an expanded spec always convert.
func (pt Point) Options() (exp.IncastOptions, error) {
	proto, err := exp.ParseProtocol(pt.Proto)
	if err != nil {
		return exp.IncastOptions{}, err
	}
	var tb exp.Testbed
	switch pt.Topo {
	case TopoDefault, "":
		tb = exp.DefaultTestbed()
	case TopoHULL:
		tb = exp.HULLTestbed()
	default:
		return exp.IncastOptions{}, fmt.Errorf("unknown topology %q (want %q or %q)", pt.Topo, TopoDefault, TopoHULL)
	}
	tb.Seed = pt.Seed
	tb.ServiceJitter = pt.Jitter
	o := exp.IncastOptions{
		Testbed:      tb,
		Protocol:     proto,
		Flows:        pt.Flows,
		TotalBytes:   pt.TotalBytes,
		BytesPerFlow: pt.BytesPerFlow,
		Rounds:       pt.Rounds,
		WarmupRounds: pt.WarmupRounds,
		RTOMin:       pt.RTOMin,
		MaxSimTime:   pt.MaxSimTime,
	}
	if pt.Faults != "" {
		classes, err := fault.ParseClasses(pt.Faults)
		if err != nil {
			return exp.IncastOptions{}, err
		}
		gen := fault.DefaultGenConfig(pt.FaultSeed)
		gen.Classes = classes
		o.Faults = &gen
	}
	o.Oracle = pt.Oracle
	return o, o.Validate()
}

// Result is the cached, serializable outcome of one job: the point echoed
// back plus the run's exp.Summary, whose fields the JSON encoding promotes
// into the object beside the point's. The encoding is canonical (fixed
// field order, no maps), so identical runs serialize byte-identically — the
// property the cache round-trip and the jobs=1-vs-jobs=N equivalence tests
// pin.
type Result struct {
	Point Point `json:"point"`

	exp.Summary

	// FaultsInjected counts fault events that fired (0 for clean points).
	FaultsInjected int64 `json:"faults_injected,omitempty"`

	// OracleViolations is the run's total conformance-violation count (0
	// for clean runs and for points run without the oracle); OracleSample
	// holds the first few rendered violations for diagnosis.
	OracleViolations int64    `json:"oracle_violations,omitempty"`
	OracleSample     []string `json:"oracle_sample,omitempty"`
}

// resultOf projects an experiment result onto the cacheable subset.
func resultOf(pt Point, r exp.IncastResult) Result {
	res := Result{Point: pt, Summary: r.Summary}
	if r.FaultStats != nil {
		res.FaultsInjected = r.FaultStats.EventsFired
	}
	res.OracleViolations = r.OracleTotal
	for i, v := range r.OracleViolations {
		if i >= 4 {
			res.OracleSample = append(res.OracleSample,
				fmt.Sprintf("... (%d more violations)", len(r.OracleViolations)-i))
			break
		}
		s := v.String()
		for _, w := range v.Window {
			s += "\n\t" + w
		}
		res.OracleSample = append(res.OracleSample, s)
	}
	return res
}

// run executes the job's simulation on rig, the calling worker's own. A run
// that MaxSimTime cut short (exp.IncastResult.Truncated) is an error, not a
// result: its summaries cover fewer rounds than the point names. The
// body is worker-executed: all its state — the rig's scheduler, topology and
// connections — is private to the worker, and it touches nothing shared
// (the sharedstate lint check enforces this). The telemetry registry is the
// one sanctioned shared sink: the run fills a registry of its own and
// merges it into reg once, under reg's lock.
//
//sweep:job
func (j Job) run(rig *exp.Rig, reg *telemetry.Registry) (Result, error) {
	o, err := j.Point.Options()
	if err != nil {
		return Result{}, err
	}
	o.Telemetry = reg
	r := rig.Run(o)
	if r.Truncated != nil {
		return Result{}, fmt.Errorf("sweep: %s: %w", j.label(), r.Truncated)
	}
	return resultOf(j.Point, r), nil
}
