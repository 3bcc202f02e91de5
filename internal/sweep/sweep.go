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
	"dctcpplus/internal/stats"
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
// replaced by its default, so expansion and hashing always see the explicit
// form.
func (s Spec) normalized() Spec {
	if s.Name == "" {
		s.Name = "sweep"
	}
	if len(s.Topos) == 0 {
		s.Topos = []string{TopoDefault}
	}
	if len(s.Protocols) == 0 {
		s.Protocols = []string{exp.ProtoDCTCPPlus.String()}
	}
	if len(s.Flows) == 0 {
		s.Flows = []int{40}
	}
	if len(s.RTOMins) == 0 {
		s.RTOMins = []sim.Duration{200 * sim.Millisecond}
	}
	if len(s.Faults) == 0 {
		s.Faults = []string{""}
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []uint64{1}
	}
	// A warm-up of 0 is a real setting once Rounds is given: only a spec
	// that leaves both unset gets the default warm-up.
	if s.Rounds == 0 {
		s.Rounds = 50
		if s.WarmupRounds == 0 {
			s.WarmupRounds = 10
		}
	}
	if s.TotalBytes == 0 {
		s.TotalBytes = 1 << 20
	}
	if s.Jitter == 0 {
		s.Jitter = 4 * sim.Millisecond
	}
	if s.FaultSeed == 0 {
		s.FaultSeed = 1
	}
	if s.MaxSimTime == 0 {
		s.MaxSimTime = 30 * 60 * sim.Second
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
// first offending dimension.
func (s Spec) Validate() error {
	n := s.normalized()
	// The name becomes a file name inside the cache directory
	// (manifestPath), so a separator or ".." would put the journal outside.
	if n.Name == "." || n.Name == ".." || strings.ContainsAny(n.Name, `/\`) {
		return fmt.Errorf("sweep: name %q is not a single path element (it names the manifest file inside the cache directory)", n.Name)
	}
	if n.Rounds <= n.WarmupRounds {
		return fmt.Errorf("sweep: rounds %d must exceed warmup %d", n.Rounds, n.WarmupRounds)
	}
	if n.WarmupRounds < 0 {
		return fmt.Errorf("sweep: warmup %d cannot be negative", n.WarmupRounds)
	}
	if n.BytesPerFlow < 0 {
		return fmt.Errorf("sweep: bytes per flow %d cannot be negative", n.BytesPerFlow)
	}
	if n.BytesPerFlow == 0 && n.TotalBytes <= 0 {
		return fmt.Errorf("sweep: need a positive byte budget")
	}
	if n.Jitter < 0 {
		return fmt.Errorf("sweep: jitter %v cannot be negative", n.Jitter)
	}
	for _, f := range n.Flows {
		if f < 1 {
			return fmt.Errorf("sweep: flow count %d must be at least 1", f)
		}
	}
	for _, d := range n.RTOMins {
		if d <= 0 {
			return fmt.Errorf("sweep: RTOmin %v must be positive", d)
		}
	}
	for _, topo := range n.Topos {
		if topo != TopoDefault && topo != TopoHULL {
			return fmt.Errorf("sweep: unknown topology %q (want %q or %q)", topo, TopoDefault, TopoHULL)
		}
	}
	for _, p := range n.Protocols {
		if _, err := exp.ParseProtocol(p); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	for _, fs := range n.Faults {
		if fs == "" {
			continue
		}
		if _, err := fault.ParseClasses(fs); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	return nil
}

// Expand validates the spec and returns its deterministic job list: the
// full cross-product in the fixed dimension order, indices dense from 0.
func (s Spec) Expand() ([]Job, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := s.normalized()
	jobs := make([]Job, 0,
		len(n.Topos)*len(n.Protocols)*len(n.Flows)*len(n.RTOMins)*len(n.Faults)*len(n.Seeds))
	for _, topo := range n.Topos {
		for _, proto := range n.Protocols {
			for _, flows := range n.Flows {
				for _, rto := range n.RTOMins {
					for _, faults := range n.Faults {
						for _, seed := range n.Seeds {
							pt := Point{
								Topo:         topo,
								Proto:        proto,
								Flows:        flows,
								RTOMin:       rto,
								Faults:       canonicalFaults(faults),
								Seed:         seed,
								FaultSeed:    n.FaultSeed,
								Rounds:       n.Rounds,
								WarmupRounds: n.WarmupRounds,
								TotalBytes:   n.TotalBytes,
								BytesPerFlow: n.BytesPerFlow,
								Jitter:       n.Jitter,
								MaxSimTime:   n.MaxSimTime,
								Oracle:       n.Oracle,
							}
							jobs = append(jobs, Job{Index: len(jobs), Point: pt})
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
func canonicalFaults(spec string) string {
	if spec == "" {
		return ""
	}
	classes, err := fault.ParseClasses(spec)
	if err != nil {
		// Validate has already vetted every spec string that reaches here.
		panic(fmt.Sprintf("sweep: %v", err))
	}
	names := make([]string, len(classes))
	for i, c := range classes {
		names[i] = c.String()
	}
	sort.Strings(names)
	return strings.Join(names, ",")
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

// Options maps the point onto the experiment harness. The error cases are
// exactly the ones Spec.Validate rejects, so points produced by Expand
// always convert.
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
		return exp.IncastOptions{}, fmt.Errorf("sweep: unknown topology %q", pt.Topo)
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
	return o, nil
}

// Result is the cached, serializable outcome of one job: the point echoed
// back plus the summary metrics the aggregate layer consumes. The JSON
// encoding is canonical (fixed field order, no maps), so identical runs
// serialize byte-identically — the property the cache round-trip and the
// jobs=1-vs-jobs=N equivalence tests pin.
type Result struct {
	Point Point `json:"point"`

	GoodputMbps stats.Summary `json:"goodput_mbps"`
	FCTms       stats.Summary `json:"fct_ms"`

	Timeouts         int64   `json:"timeouts"`
	FLossTO          int64   `json:"floss_to"`
	LAckTO           int64   `json:"lack_to"`
	TimeoutRoundFrac float64 `json:"timeout_round_frac"`
	MinCwndECEFrac   float64 `json:"min_cwnd_ece_frac"`
	BottleneckDrops  int64   `json:"bottleneck_drops"`
	MeasuredRounds   int     `json:"measured_rounds"`

	// SimTime is the virtual time the run consumed.
	SimTime sim.Duration `json:"sim_time_ns"`

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
	res := Result{
		Point:            pt,
		GoodputMbps:      r.GoodputMbps,
		FCTms:            r.FCTms,
		Timeouts:         r.Timeouts,
		FLossTO:          r.FLossTO,
		LAckTO:           r.LAckTO,
		TimeoutRoundFrac: r.TimeoutRoundFrac,
		MinCwndECEFrac:   r.MinCwndECEFrac,
		BottleneckDrops:  r.BottleneckDrops,
		MeasuredRounds:   r.Rounds,
		SimTime:          r.SimTime,
	}
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
// that MaxSimTime cut short of its measured rounds is an error, not a
// result: its summaries cover fewer rounds than the point names. The
// body is worker-executed: all its state — the rig's scheduler, topology and
// connections — is private to the worker, and it touches nothing shared
// (the sweepsafety lint check enforces this). The telemetry registry is the
// one sanctioned shared sink; its instruments are atomic.
//
//sweep:job
func (j Job) run(rig *exp.Rig, reg *telemetry.Registry) (Result, error) {
	o, err := j.Point.Options()
	if err != nil {
		return Result{}, err
	}
	o.Telemetry = reg
	res := resultOf(j.Point, rig.Run(o))
	if pt := j.Point; res.MeasuredRounds < pt.Rounds-pt.WarmupRounds {
		return Result{}, fmt.Errorf("sweep: job %d (%s, N=%d, RTOmin %v, seed %d): %d of %d measured rounds done by MaxSimTime %v",
			j.Index, pt.Proto, pt.Flows, pt.RTOMin, pt.Seed, res.MeasuredRounds, pt.Rounds-pt.WarmupRounds, pt.MaxSimTime)
	}
	return res, nil
}
