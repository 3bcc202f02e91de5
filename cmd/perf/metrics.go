package main

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
// The tables below are the program's side of that file; a test keeps the
// two identical.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEndMetrics are what a user of the simulator sees, measured with
// tracing off, one value per timed repetition.
//
// There is deliberately no fail_share metric: a metric must never be 0, and
// this one always should be. Failures are reported through the result
// object's attempted/failed counts instead, where a run whose output check
// fails counts every operation as failed.
var endToEndMetrics = []metricDef{
	{"wall_s", "s", "lower", 0.25},       // host seconds inside the facade call, scaled to machine speed
	{"setup_s", "s", "lower", 0.25},      // child start → timed region, scaled to machine speed
	{"peak_rss_mb", "MB", "lower", 0.25}, // child VmHWM at exit
	{"alloc_mb", "MB", "lower", 0.08},    // MemStats.TotalAlloc delta over the timed region
	{"mallocs_k", "1e3", "lower", 0.08},  // MemStats.Mallocs delta over the timed region
}

// rawMetrics ride along in the report beside the end-to-end metrics they
// explain: the unscaled seconds and the machine-speed index that scaled
// them. They are not in BENCHMARK.json and carry no bound.
var rawMetrics = []metricDef{
	{Name: "wall_raw_s", Unit: "s"},
	{Name: "setup_raw_s", Unit: "s"},
	{Name: "speed_index", Unit: "ratio"},
}

// reportedMetrics is everything a timed repetition measures.
var reportedMetrics = append(append([]metricDef{}, endToEndMetrics...), rawMetrics...)

// perLayerMetrics are reported by the traced run. Twin-derived metrics
// describe the selected workload; driver metrics are workload-independent.
var perLayerMetrics = []metricDef{
	// sim
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.run_s", Unit: "s", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.pending_max", Unit: "count", Better: "lower"},
	{Name: "sim.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.churn_ns.d64", Unit: "ns", Better: "lower"},
	{Name: "sim.churn_ns.d4096", Unit: "ns", Better: "lower"},
	{Name: "sim.timer_reset_ns.d4096", Unit: "ns", Better: "lower"},
	// netsim
	{Name: "netsim.build_us", Unit: "us", Better: "lower"},
	{Name: "netsim.pkts", Unit: "count", Better: "lower"},
	{Name: "netsim.drops", Unit: "count", Better: "lower"},
	{Name: "netsim.marks", Unit: "count", Better: "lower"},
	{Name: "netsim.max_queue_kb", Unit: "KB", Better: "lower"},
	{Name: "netsim.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "netsim.hop_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.hop_allocs", Unit: "count", Better: "lower"},
	// packet
	{Name: "packet.minted", Unit: "count", Better: "lower"},
	{Name: "packet.recycled", Unit: "count", Better: "higher"},
	{Name: "packet.reuse_ratio", Unit: "ratio", Better: "higher"},
	{Name: "packet.cpu_share", Unit: "ratio", Better: "lower"},
	// tcp
	{Name: "tcp.segments", Unit: "count", Better: "lower"},
	{Name: "tcp.acks", Unit: "count", Better: "lower"},
	{Name: "tcp.retrans", Unit: "count", Better: "lower"},
	{Name: "tcp.timeouts", Unit: "count", Better: "lower"},
	{Name: "tcp.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "tcp.segment_ns", Unit: "ns", Better: "lower"},
	{Name: "tcp.segment_allocs", Unit: "count", Better: "lower"},
	{Name: "tcp.conn_setup_us", Unit: "us", Better: "lower"},
	{Name: "tcp.conn_setup_allocs", Unit: "count", Better: "lower"},
	// core + dctcp
	{Name: "core.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "core.timeinc_entries", Unit: "count", Better: "lower"},
	{Name: "dctcp.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "dctcp.alpha_updates", Unit: "count", Better: "lower"},
	// workload
	{Name: "workload.setup_us", Unit: "us", Better: "lower"},
	{Name: "workload.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "workload.round_overhead_us", Unit: "us", Better: "lower"},
	// exp
	{Name: "exp.summarize_us", Unit: "us", Better: "lower"},
	{Name: "exp.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "exp.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "exp.run_setup_us", Unit: "us", Better: "lower"},
	{Name: "exp.run_setup_allocs", Unit: "count", Better: "lower"},
	// sweep
	{Name: "sweep.job_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sweep.job_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "sweep.key_us", Unit: "us", Better: "lower"},
	{Name: "sweep.cache_put_us", Unit: "us", Better: "lower"},
	{Name: "sweep.cache_get_us", Unit: "us", Better: "lower"},
	{Name: "sweep.warm_replay_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sweep.scaling_2w", Unit: "ratio", Better: "higher"},
	{Name: "sweep.cpu_share", Unit: "ratio", Better: "lower"},
	// stats
	{Name: "stats.summarize_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "stats.cpu_share", Unit: "ratio", Better: "lower"},
	// observers
	{Name: "telemetry.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "oracle.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "oracle.violations", Unit: "count", Better: "lower"},
	{Name: "trace.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "telemetry.attach_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "oracle.attach_overhead_share", Unit: "ratio", Better: "lower"},
	// lint
	{Name: "lint.pass_s", Unit: "s", Better: "lower"},
	{Name: "lint.lines", Unit: "count", Better: "lower"},
	{Name: "lint.us_per_line", Unit: "us", Better: "lower"},
	// runtime and everything else; the *.cpu_share values sum to 1
	{Name: "runtime.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "other.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

func unitOf(name string) string {
	for _, m := range perLayerMetrics {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range reportedMetrics {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// reportSchema versions the JSON report -compare reads.
const reportSchema = "perf/1"

// report is the JSON document one invocation writes.
type report struct {
	Schema    string           `json:"schema"`
	Seed      uint64           `json:"seed"`
	Div       int              `json:"div"`
	GoVersion string           `json:"go"`
	CPUs      int              `json:"cpus"`
	Workloads []workloadReport `json:"workloads"`
}

// workloadReport is one workload's results: the end-to-end sample sets of
// its timed repetitions and, when a traced run was made, its per-layer
// metrics.
type workloadReport struct {
	Name      string   `json:"name"`
	Digest    string   `json:"sim_digest"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// OracleViolations is the conformance oracle's count on observed runs:
	// reported beside the results, never a failed check.
	OracleViolations int64                `json:"oracle_violations,omitempty"`
	EndToEnd         map[string]sampleSet `json:"end_to_end"`
	PerLayer         map[string]float64   `json:"per_layer,omitempty"`
}

// sampleSet is one metric's values across repetitions.
type sampleSet struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func newSampleSet(unit string, values []float64) sampleSet {
	return sampleSet{
		Unit: unit, Median: median(values), Min: percentile(values, 0), Max: percentile(values, 100),
		N: len(values), Values: values,
	}
}
