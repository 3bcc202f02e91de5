package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"

	dcp "dctcpplus"
)

// TestMain turns the test binary into the perf program when the parent
// under test re-executes it as a child (see childEnv).
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func runPerf(t *testing.T, args ...string) (stdout string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	if errb.Len() > 0 {
		t.Logf("stderr:\n%s", errb.String())
	}
	return out.String(), code
}

// TestSmoke drives every workload and the traced run at 1/50 scale through
// real child processes, then checks the report's schema and the output
// checks' verdicts — the harness itself, exercised on every tier-1 run.
func TestSmoke(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("spawns child processes and runs the full lint pass")
	}
	dir := t.TempDir()
	reportPath := filepath.Join(dir, "perf.json")
	spansPath := filepath.Join(dir, "spans.jsonl")
	stdout, code := runPerf(t, "-smoke", "-tmp", dir, "-out", reportPath, "-trace-out", spansPath)
	if code != 0 {
		t.Fatalf("perf -smoke exited %d:\n%s", code, stdout)
	}

	var rep report
	if err := readJSON(reportPath, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != reportSchema || rep.Div != smokeDiv || len(rep.Workloads) != len(workloads) {
		t.Fatalf("report header: schema %q div %d, %d workloads", rep.Schema, rep.Div, len(rep.Workloads))
	}
	for i, wr := range rep.Workloads {
		if wr.Name != workloads[i].name {
			t.Errorf("workload %d is %q, want %q", i, wr.Name, workloads[i].name)
		}
		if wr.Failed != 0 || wr.Attempted < 1 || len(wr.Problems) != 0 || len(wr.Digest) != 64 {
			t.Errorf("%s: attempted %d failed %d digest %q problems %v", wr.Name, wr.Attempted, wr.Failed, wr.Digest, wr.Problems)
		}
		for _, m := range endToEndMetrics {
			s, ok := wr.EndToEnd[m.Name]
			if !ok || s.N < 1 || !(s.Median > 0) || s.Unit != m.Unit {
				t.Errorf("%s: end-to-end %s = %+v", wr.Name, m.Name, s)
			}
		}
		if idx := wr.EndToEnd["speed_index"]; idx.N < 1 || idx.Median < 0.05 || idx.Median > 20 ||
			!(wr.EndToEnd["wall_raw_s"].Median > 0) || !(wr.EndToEnd["setup_raw_s"].Median > 0) {
			t.Errorf("%s: speed index %+v, raw wall %+v", wr.Name, idx, wr.EndToEnd["wall_raw_s"])
		}
		var shares float64
		for _, m := range perLayerMetrics {
			v, ok := wr.PerLayer[m.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer %s = %v (present %v)", wr.Name, m.Name, v, ok)
			}
			if strings.HasSuffix(m.Name, ".cpu_share") {
				shares += v
			}
		}
		if len(wr.PerLayer) != len(perLayerMetrics) {
			t.Errorf("%s: %d per-layer metrics, want %d", wr.Name, len(wr.PerLayer), len(perLayerMetrics))
		}
		// A 1/50-scale twin may finish between two profiler ticks.
		if shares != 0 && math.Abs(shares-1) > 0.02 {
			t.Errorf("%s: cpu shares sum to %v", wr.Name, shares)
		}
		if wr.PerLayer["sweep.hit_ratio"] != 1 {
			t.Errorf("%s: sweep.hit_ratio = %v", wr.Name, wr.PerLayer["sweep.hit_ratio"])
		}
		if wr.PerLayer["sim.events"] < 1 || wr.PerLayer["netsim.pkts"] < 1 {
			t.Errorf("%s: twin counted %v events, %v packets", wr.Name, wr.PerLayer["sim.events"], wr.PerLayer["netsim.pkts"])
		}
	}

	f, err := os.Open(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		if s.ID < 1 || s.Name == "" || s.Workload == "" || s.End < s.Start {
			t.Errorf("malformed span %+v", s)
		}
		seen[s.Name] = true
	}
	for _, name := range []string{"driver.sim", "driver.lint", "incast_massive", "netsim.build", "workload.setup", "sim.run", "exp.summarize", "sweep.run", "sweep.job.0", "sweep.jobs.twin"} {
		if !seen[name] {
			t.Errorf("no span named %q in -trace-out", name)
		}
	}
}

// TestContractLine checks the driver form: the last line of standard
// output is one object with exactly the contract's keys, carrying every
// end-to-end metric with --trace 0 and every per-layer metric with 1.
func TestContractLine(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("spawns child processes")
	}
	for _, tc := range []struct {
		trace string
		want  []metricDef
	}{{"0", endToEndMetrics}, {"1", perLayerMetrics}} {
		stdout, code := runPerf(t, "--workload", "incast_bulk", "--seed", "3", "--seconds", "0.001", "--trace", tc.trace, "-div", "50", "-tmp", t.TempDir())
		if code != 0 {
			t.Fatalf("trace %s: exit %d", tc.trace, code)
		}
		lines := strings.Split(strings.TrimSpace(stdout), "\n")
		var raw map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
			t.Fatalf("trace %s: last line %q: %v", tc.trace, lines[len(lines)-1], err)
		}
		if len(raw) != 4 {
			t.Errorf("trace %s: result has %d keys, want correct/attempted/failed/metrics", tc.trace, len(raw))
		}
		var res contractResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("trace %s: %+v", tc.trace, res)
		}
		if len(res.Metrics) != len(tc.want) {
			t.Errorf("trace %s: %d metrics, want %d", tc.trace, len(res.Metrics), len(tc.want))
		}
		for _, m := range tc.want {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %+v (present %v)", tc.trace, m.Name, got, ok)
			}
		}
	}
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the program's own
// metric and workload tables identical.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	var b struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "..", "BENCHMARK.json"), &b); err != nil {
		t.Fatal(err)
	}
	if strings.Join(b.Command, " ") != "go run ./cmd/perf" || len(b.Paths) != 1 || b.Paths[0] != "cmd/perf" {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %+v, program has %q / %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, file, prog []metricDef) {
		if len(file) != len(prog) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(file), len(prog))
		}
		for i := range prog {
			if file[i] != prog[i] {
				t.Errorf("%s %d: file has %+v, program has %+v", kind, i, file[i], prog[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndMetrics)
	same("per_layer", b.PerLayer, perLayerMetrics)
	if endToEndMetrics[1].Name != "setup_s" || endToEndMetrics[1].Bound != 0.25 {
		t.Errorf("setup_s must be an end-to-end metric with the largest bound")
	}
}

// TestFoldProfile decodes a profile captured here: a scheduler churn loop
// must land in the sim package and layer, and shares must sum to 1.
func TestFoldProfile(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation frames are every sample's leaf")
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	start := now()
	for since(start) < 0.5 {
		simChurn(1, 4096, 200_000)
	}
	pprof.StopCPUProfile()

	byPkg, err := foldProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range byPkg {
		sum += v
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("package shares sum to %v: %v", sum, byPkg)
	}
	if got := byPkg["dctcpplus/internal/sim"]; got < 0.5 {
		t.Errorf("sim package holds %.2f of a scheduler churn loop's samples: %v", got, byPkg)
	}
	layers := foldLayers(byPkg)
	sum = 0
	for _, name := range layerNames {
		sum += layers[name]
	}
	if math.Abs(sum-1) > 0.01 || layers["sim"] < 0.5 {
		t.Errorf("layer shares %v sum to %v", layers, sum)
	}

	if _, err := foldProfile([]byte("not gzip")); err == nil {
		t.Error("foldProfile accepted garbage")
	}
}

func TestPackageAndLayerOf(t *testing.T) {
	for _, tc := range []struct{ symbol, pkg, layer string }{
		{"dctcpplus/internal/sim.(*Scheduler).Step", "dctcpplus/internal/sim", "sim"},
		{"dctcpplus/internal/sweep/pool.ForEach.func1", "dctcpplus/internal/sweep/pool", "sweep"},
		{"dctcpplus/internal/d2tcp.(*D2TCP).OnAck", "dctcpplus/internal/d2tcp", "dctcp"},
		{"dctcpplus/internal/check.AtMost", "dctcpplus/internal/check", "other"},
		{"runtime.mallocgc", "runtime", "runtime"},
		{"internal/runtime/maps.(*Map).getWithKey", "internal/runtime/maps", "runtime"},
		{"encoding/json.(*encodeState).marshal", "encoding/json", "other"},
		{"main.twinIncast", "main", "other"},
		{"", "unknown", "other"},
	} {
		if got := packageOf(tc.symbol); got != tc.pkg {
			t.Errorf("packageOf(%q) = %q, want %q", tc.symbol, got, tc.pkg)
		}
		if got := layerOf(tc.pkg); got != tc.layer {
			t.Errorf("layerOf(%q) = %q, want %q", tc.pkg, got, tc.layer)
		}
	}
}

func TestMedianPercentileQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
	vs := []float64{10, 20, 30, 40, 50}
	for p, want := range map[float64]float64{0: 10, 25: 20, 50: 30, 90: 46, 100: 50} {
		if got := percentile(vs, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	q1, q3 := quartiles(ten)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got := spread(ten); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", got)
	}
}

// TestCalibrate pins what the speed index rests on: the calibration does a
// fixed amount of work (twice the operations take about twice as long) and
// the index is a sane ratio.
func TestCalibrate(t *testing.T) {
	best := func(ops int) float64 {
		var runs []float64
		for i := 0; i < 7; i++ {
			runs = append(runs, calibrate(ops))
		}
		return percentile(runs, 0)
	}
	one, two := best(calibOps/4), best(calibOps/2)
	if r := two / one; r < 1.5 || r > 2.7 {
		t.Errorf("doubling the work scaled the time by %.2f (%.4fs -> %.4fs)", r, one, two)
	}
	if idx := speedIndex(3); idx < 0.05 || idx > 20 {
		t.Errorf("speed index %v", idx)
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	rec := recorder{workload: "w"}
	outer := rec.begin("outer")
	inner := rec.begin("inner")
	if d := rec.end(inner); d < 0 {
		t.Errorf("negative duration %v", d)
	}
	rec.end(outer)
	sibling := rec.begin("sibling")
	rec.end(sibling)
	if len(rec.spans) != 3 || rec.spans[0].Parent != 0 || rec.spans[1].Parent != rec.spans[0].ID || rec.spans[2].Parent != 0 {
		t.Errorf("spans %+v", rec.spans)
	}
	var buf bytes.Buffer
	if err := writeSpans(&buf, rec.spans); err != nil || strings.Count(buf.String(), "\n") != 3 {
		t.Errorf("writeSpans: %v, %q", err, buf.String())
	}
}

// TestDigestAndTwin runs each facade entry point twice in-process at smoke
// scale: the digest must repeat, change with the seed, and be reproduced by
// the layer-assembled twin.
func TestDigestAndTwin(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			p := w.gen(7, smokeDiv)
			first, check := p.facadeRun(t.TempDir())
			check(&first)
			second, _ := p.facadeRun(t.TempDir())
			other, _ := w.gen(8, smokeDiv).facadeRun(t.TempDir())
			if len(first.Problems) != 0 || first.Ops < 1 || first.Done != first.Ops {
				t.Fatalf("facade run: %+v", first)
			}
			if first.Digest != second.Digest {
				t.Errorf("digest changed between two runs: %s vs %s", first.Digest, second.Digest)
			}
			if first.Digest == other.Digest {
				t.Errorf("digest did not change with the seed")
			}

			var rec recorder
			var twin facts
			switch p.kind {
			case kindIncast:
				twin, _ = twinIncast(p.incast, p.observed, &rec)
			case kindMix:
				twin, _ = twinMix(p.mix, &rec)
			case kindSweep:
				var err error
				if twin, _, err = twinSweepJobs(p.sweep, &rec); err != nil {
					t.Fatal(err)
				}
			}
			if twin.Digest != first.Digest || twin.SimTime != first.SimTime || twin.Timeouts != first.Timeouts || twin.Drops != first.Drops {
				t.Errorf("twin diverged:\n twin   %+v\n facade %+v", twin, first)
			}
		})
	}
}

// TestBrokenRunFailsEveryOperation cuts a run short and expects the output
// check to fail it wholesale: every operation counted failed.
func TestBrokenRunFailsEveryOperation(t *testing.T) {
	w, _ := findWorkload("incast_bulk")
	p := w.gen(1, smokeDiv)
	p.incast.Rounds, p.incast.WarmupRounds = 4, 0
	p.incast.MaxSimTime = 50 * dcp.Millisecond // a round of 8 × 16 MiB takes ~1 s
	f, check := p.facadeRun(t.TempDir())
	check(&f)
	if f.Done >= f.Ops || len(f.Problems) == 0 {
		t.Fatalf("a run cut short passed its checks: %+v", f)
	}
	wr := workloadReport{EndToEnd: map[string]sampleSet{}}
	wr.absorb(f, "broken run")
	if wr.Attempted != 4 || wr.Failed != wr.Attempted {
		t.Errorf("attempted %d failed %d, want every operation failed", wr.Attempted, wr.Failed)
	}

	// A digest that differs from the first run's fails the run too.
	good, _ := w.gen(1, smokeDiv).facadeRun(t.TempDir())
	wr = workloadReport{EndToEnd: map[string]sampleSet{}}
	wr.absorb(good, "first")
	good.Digest = "different"
	wr.absorb(good, "second")
	if wr.Failed != good.Ops {
		t.Errorf("digest mismatch failed %d of %d operations", wr.Failed, good.Ops)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	benchJSON := `{"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.10},{"name":"alloc_mb","unit":"MB","better":"lower","bound":0.02}]}`
	if err := os.WriteFile(bench, []byte(benchJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name, digest string, wall, alloc []float64) string {
		rep := report{Schema: reportSchema, Seed: 1, Div: 1, Workloads: []workloadReport{{
			Name: "incast_bulk", Digest: digest, Attempted: 64,
			EndToEnd: map[string]sampleSet{"wall_s": newSampleSet("s", wall), "alloc_mb": newSampleSet("MB", alloc)},
		}}}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", "aaaa", []float64{5.0, 5.1, 5.05}, []float64{100, 100, 100})
	for _, tc := range []struct {
		name, digest string
		wall, alloc  []float64
		code         int
		want         []string
	}{
		{"same", "aaaa", []float64{5.1, 5.0, 5.2}, []float64{100, 100, 100}, 0, []string{"ok", "0 regression(s), 0 unresolved"}},
		{"slower", "aaaa", []float64{6.0, 6.1, 6.05}, []float64{100, 100, 100}, 1, []string{"REGRESSION", "1 regression(s)"}},
		{"noisy", "aaaa", []float64{5.0, 6.5, 5.8}, []float64{100, 100, 100}, 0, []string{"unresolved", "1 unresolved"}},
		{"faster", "aaaa", []float64{4.0, 4.1, 4.05}, []float64{100, 100, 100}, 0, []string{"better"}},
		{"leaky", "bbbb", []float64{5.0, 5.1, 5.05}, []float64{103, 103, 103}, 1, []string{"REGRESSION", "sim_digest changed: aaaa -> bbbb"}},
	} {
		path := write(tc.name+".json", tc.digest, tc.wall, tc.alloc)
		stdout, code := runPerf(t, "-compare", "-bench", bench, base, path)
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, code, tc.code, stdout)
		}
		for _, want := range tc.want {
			if !strings.Contains(stdout, want) {
				t.Errorf("%s: output lacks %q:\n%s", tc.name, want, stdout)
			}
		}
	}
	if _, code := runPerf(t, "-compare", base); code != 2 {
		t.Errorf("-compare with one file exited %d, want 2", code)
	}
}
