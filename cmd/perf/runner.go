package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"
)

// childEnv marks a process as a perf child. The parent always sets it; the
// package's TestMain uses it to turn the test binary into the perf program
// when the parent under test re-executes itself.
const childEnv = "PERF_CHILD"

// warmupDiv is how much smaller than the timed run the untimed warm-up is.
const warmupDiv = 10

// repResult is what one child process reports back on its standard output.
type repResult struct {
	// Metrics holds the repetition's value of every end-to-end and raw
	// metric, by name.
	Metrics map[string]float64 `json:"metrics"`
	Facts   facts              `json:"facts"`

	// Traced children only.
	Twin *twinResult `json:"twin,omitempty"`
}

// twinResult is the traced half of a twin child's report.
type twinResult struct {
	Facts  facts              `json:"facts"`
	Layers map[string]float64 `json:"layers"`
	Spans  []span             `json:"spans"`
}

// spawn re-executes this binary as a child in the given mode and decodes
// its report. The child's standard error passes through.
func spawn(o options, w workloadDef, mode string, extra ...string) (repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return repResult{}, err
	}
	args := append([]string{
		"-child", mode,
		"-workload", w.name,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-div", strconv.Itoa(o.div),
		"-tmp", o.tmp,
		"-spawned", strconv.FormatInt(time.Now().UnixNano(), 10),
	}, extra...)
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return repResult{}, fmt.Errorf("%s child (%s): %w", w.name, mode, err)
	}
	var r repResult
	if err := json.Unmarshal(out, &r); err != nil {
		return repResult{}, fmt.Errorf("%s child (%s): bad report: %w", w.name, mode, err)
	}
	return r, nil
}

// timedRuns makes the end-to-end measurement: child repetitions, tracing
// off, until -seconds of facade time have been measured (at least one).
// Longer workloads therefore get fewer repetitions, never a shorter run.
func timedRuns(o options, w workloadDef, wr *workloadReport) error {
	values := map[string][]float64{}
	var measured float64
	for measured < o.seconds {
		r, err := spawn(o, w, "rep")
		if err != nil {
			return err
		}
		measured += r.Metrics["wall_raw_s"]
		for _, m := range reportedMetrics {
			values[m.Name] = append(values[m.Name], r.Metrics[m.Name])
		}
		wr.absorb(r.Facts, "timed run")
	}
	for _, m := range reportedMetrics {
		wr.EndToEnd[m.Name] = newSampleSet(m.Unit, values[m.Name])
	}
	return nil
}

// absorb folds one run's facts into the workload report: operation counts
// accumulate, every simulated digest must agree with the first, and any
// failed check fails all of that run's operations.
func (wr *workloadReport) absorb(f facts, what string) {
	if wr.Digest == "" {
		wr.Digest = f.Digest
	} else if f.Digest != wr.Digest {
		f.problemf("%s: sim_digest %.16s differs from %.16s", what, f.Digest, wr.Digest)
	}
	wr.Attempted += f.Ops
	wr.OracleViolations = f.OracleTotal
	if len(f.Problems) > 0 {
		wr.Failed += f.Ops
		wr.Problems = append(wr.Problems, f.Problems...)
	}
}

// tracedRun makes the per-layer measurement: one twin child (untraced
// facade call, then the twin under the CPU profiler), merged with the
// micro-driver metrics drv. It returns the spans the child recorded.
func tracedRun(o options, w workloadDef, several bool, drv map[string]float64, wr *workloadReport) ([]span, error) {
	var extra []string
	if p := profilePath(o.cpuProfile, w.name, several); p != "" {
		extra = append(extra, "-cpuprofile", p)
	}
	if p := profilePath(o.memProfile, w.name, several); p != "" {
		extra = append(extra, "-memprofile", p)
	}
	r, err := spawn(o, w, "twin", extra...)
	if err != nil {
		return nil, err
	}
	wr.absorb(r.Facts, "traced run's facade call")
	twin := r.Twin.Facts
	if twin.Digest != r.Facts.Digest || twin.SimTime != r.Facts.SimTime || twin.Timeouts != r.Facts.Timeouts ||
		twin.Drops != r.Facts.Drops || twin.OracleTotal != r.Facts.OracleTotal {
		twin.problemf("twin run diverged from the facade run: sim time %v vs %v, timeouts %d vs %d, drops %d vs %d, oracle %d vs %d, digest %.16s vs %.16s",
			twin.SimTime, r.Facts.SimTime, twin.Timeouts, r.Facts.Timeouts, twin.Drops, r.Facts.Drops,
			twin.OracleTotal, r.Facts.OracleTotal, twin.Digest, r.Facts.Digest)
	}
	twin.Digest = r.Facts.Digest // divergence is reported above, once
	wr.absorb(twin, "twin run")

	wr.PerLayer = map[string]float64{}
	for name, v := range drv {
		wr.PerLayer[name] = v
	}
	// Twin metrics win where both exist: sweep_grid's twin reports the
	// sweep's job percentiles and warm replay over all of its jobs.
	for name, v := range r.Twin.Layers {
		wr.PerLayer[name] = v
	}
	wr.PerLayer["oracle.violations"] = float64(twin.OracleTotal)
	return r.Twin.Spans, nil
}

// childMain is one child process: set up, warm up, make the timed facade
// call, run the output checks, and — for a twin child — the traced twin.
func childMain(o options, stdout io.Writer) error {
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.tmp == "" || (o.child != "rep" && o.child != "twin") {
		return fmt.Errorf("child needs -tmp and -child rep or twin")
	}
	warmDir, err := freshDir(o.tmp, "warmup")
	if err != nil {
		return err
	}
	coldDir, err := freshDir(o.tmp, "cold")
	if err != nil {
		return err
	}
	p := w.gen(o.seed, o.div)
	w.gen(o.seed, o.div*warmupDiv).facadeRun(warmDir)
	runtime.GC()

	// Set-up ends here: process start, flag parsing, input generation,
	// scratch directories and the warm-up run are all behind us.
	setupRaw := float64(time.Now().UnixNano()-o.spawned) / 1e9
	bursts := scaled(calibBursts, o.div) // a reduced-size run calibrates for less long, too
	speedBefore := speedIndex(bursts)
	before := readMem()
	start := now()
	f, check := p.facadeRun(coldDir)
	wallRaw := since(start)
	after := readMem()
	speed := (speedBefore + speedIndex(bursts)) / 2
	check(&f)
	r := repResult{Facts: f, Metrics: map[string]float64{
		"wall_s":      wallRaw * speed,
		"setup_s":     setupRaw * speedBefore,
		"alloc_mb":    float64(after.totalAlloc-before.totalAlloc) / 1e6,
		"mallocs_k":   float64(after.mallocs-before.mallocs) / 1e3,
		"wall_raw_s":  wallRaw,
		"setup_raw_s": setupRaw,
		"speed_index": speed,
	}}

	if o.child == "twin" {
		twin, err := twinMain(o, w, p, wallRaw)
		if err != nil {
			return err
		}
		r.Twin = twin
	}
	r.Metrics["peak_rss_mb"] = peakRSSMB()
	return json.NewEncoder(stdout).Encode(r)
}

// twinMain runs the workload's twin under the CPU profiler and reduces it
// to per-layer metrics. facadeWall is the untraced facade call this child
// just timed: the base for the overhead shares.
func twinMain(o options, w workloadDef, p plan, facadeWall float64) (*twinResult, error) {
	rec := recorder{workload: fmt.Sprintf("%s/seed=%d", w.name, o.seed)}
	var (
		prof   bytes.Buffer
		f      facts
		c      layerCounts
		layers = map[string]float64{}
	)
	root := rec.begin(w.name)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	start := now()
	switch p.kind {
	case kindIncast:
		f, c = twinIncast(p.incast, p.observed, &rec)
	case kindMix:
		f, c = twinMix(p.mix, &rec)
	case kindSweep:
		// The runner has no exported seam below Run, so its twin is the
		// runner itself, profiled, with one span per job.
		dir, err := freshDir(o.tmp, "twin")
		if err != nil {
			pprof.StopCPUProfile()
			return nil, err
		}
		sp := rec.begin("sweep.run")
		var check func(*facts)
		f, check = p.facadeRun(dir)
		jobSpans(&rec, f.JobWalls)
		rec.end(sp)
		check(&f)
	}
	wall := since(start)
	pprof.StopCPUProfile()

	if p.kind == kindSweep {
		// Layer counts for a sweep: every job again through the layer
		// constructors, outside the profile and the twin's wall.
		jf, jc, err := twinSweepJobs(p.sweep, &rec)
		if err != nil {
			return nil, err
		}
		if jf.Digest != f.Digest {
			f.problemf("layer pass diverged from the sweep: digest %.16s vs %.16s", jf.Digest, f.Digest)
		}
		c = jc
		jobMs := make([]float64, len(f.JobWalls))
		for i, ns := range f.JobWalls {
			jobMs[i] = float64(ns) / 1e6
		}
		layers["sweep.job_ms_p50"] = percentile(jobMs, 50)
		layers["sweep.job_ms_p90"] = percentile(jobMs, 90)
		layers["sweep.warm_replay_ms"] = f.WarmReplayS * 1e3
		layers["sweep.hit_ratio"] = f.HitRatio
	}
	rec.end(root)

	if o.cpuProfile != "" {
		if err := os.WriteFile(o.cpuProfile, prof.Bytes(), 0o644); err != nil {
			return nil, err
		}
	}
	if o.memProfile != "" {
		runtime.GC() // materialise up-to-date heap statistics
		if err := writeFile(o.memProfile, pprof.WriteHeapProfile); err != nil {
			return nil, err
		}
	}
	byPkg, err := foldProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	shares := foldLayers(byPkg)
	for _, layer := range layerNames {
		layers[layer+".cpu_share"] = shares[layer]
	}
	c.metrics(layers)
	layers["exp.overhead_share"] = ratio(facadeWall-c.runS, facadeWall)
	layers["trace.overhead_share"] = ratio(wall-facadeWall, facadeWall)
	return &twinResult{Facts: f, Layers: layers, Spans: rec.spans}, nil
}

// jobSpans lays the sweep's per-job walls end to end as children of the
// innermost open span. The runner reports durations, not start times; with
// one worker, jobs run back to back in index order, so this is their order
// and extent, with the runner's own per-job work between them elided.
func jobSpans(rec *recorder, walls []int64) {
	at := rec.spans[rec.open[len(rec.open)-1]].Start
	for i, ns := range walls {
		d := float64(ns) / 1e9
		rec.add("sweep.job."+strconv.Itoa(i), at, at+d)
		at += d
	}
}

// ratio divides, yielding 0 for an empty base so a metric is always a
// number.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics writes the twin's counts into the per-layer metric map.
func (c layerCounts) metrics(m map[string]float64) {
	m["sim.events"] = float64(c.events)
	m["sim.run_s"] = c.runS
	m["sim.ns_per_event"] = ratio(c.runS*1e9, float64(c.events))
	m["sim.pending_max"] = float64(c.pendingMax)
	m["netsim.build_us"] = c.buildS * 1e6
	m["netsim.pkts"] = float64(c.pkts)
	m["netsim.drops"] = float64(c.drops)
	m["netsim.marks"] = float64(c.marks)
	m["netsim.max_queue_kb"] = float64(c.maxQueueBytes) / 1024
	m["packet.minted"] = float64(c.minted)
	m["packet.recycled"] = float64(c.recycled)
	m["packet.reuse_ratio"] = ratio(float64(c.recycled), float64(c.minted+c.recycled))
	m["tcp.segments"] = float64(c.dataPkts)
	m["tcp.acks"] = float64(c.acks)
	m["tcp.retrans"] = float64(c.retrans)
	m["tcp.timeouts"] = float64(c.timeouts)
	m["core.timeinc_entries"] = float64(c.timeincEntries)
	m["dctcp.alpha_updates"] = float64(c.alphaUpdates)
	m["workload.setup_us"] = c.setupS * 1e6
	m["exp.summarize_us"] = c.summarizeS * 1e6
}
