package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"dctcpplus/internal/exp"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/stats"
	"dctcpplus/internal/telemetry"
)

// fastSpec is a small but multi-dimensional grid: 2 protocols × 2 flow
// counts × 2 seeds = 8 jobs, each a few milliseconds of wall time.
func fastSpec(name string) Spec {
	return Spec{
		Name:      name,
		Protocols: []string{"dctcp", "dctcp+"},
		Flows:     []int{4, 8},
		Seeds:     []uint64{1, 2},
		Rounds:    5,

		WarmupRounds: 1,
		RTOMins:      []sim.Duration{10 * sim.Millisecond},
	}
}

func TestSpecDefaultsAndValidate(t *testing.T) {
	jobs, err := Spec{Name: "zero"}.Expand()
	if err != nil {
		t.Fatalf("zero spec: %v", err)
	}
	if len(jobs) != 1 {
		t.Fatalf("zero spec expands to %d jobs, want 1", len(jobs))
	}
	pt := jobs[0].Point
	if pt.Proto != "dctcp+" || pt.Flows != 40 || pt.RTOMin != 200*sim.Millisecond ||
		pt.Seed != 1 || pt.Rounds != 50 || pt.WarmupRounds != 10 {
		t.Errorf("zero-spec defaults wrong: %+v", pt)
	}
	// A zero warm-up beside explicit rounds is a setting, not "unset".
	jobs, err = Spec{Name: "r5", Rounds: 5}.Expand()
	if err != nil {
		t.Fatalf("Spec{Rounds: 5}: %v", err)
	}
	if pt := jobs[0].Point; pt.Rounds != 5 || pt.WarmupRounds != 0 {
		t.Errorf("Spec{Rounds: 5} expands to %d rounds with warm-up %d, want 5 with 0", pt.Rounds, pt.WarmupRounds)
	}

	bad := []Spec{
		{Name: "p", Protocols: []string{"nope"}},
		{Name: "f", Flows: []int{0}},
		{Name: "r", RTOMins: []sim.Duration{0}},
		{Name: "t", Topos: []string{"fat-tree"}},
		{Name: "x", Faults: []string{"quux"}},
		{Name: "w", Rounds: 5, WarmupRounds: 5},
		{Name: "b", TotalBytes: -1},
		{Name: "bf", BytesPerFlow: -1},
		{Name: "w-", Rounds: 5, WarmupRounds: -1},
		{Name: "j", Jitter: -1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %q: Validate accepted invalid spec", s.Name)
		}
	}
}

func TestExpandDeterministicAndSeedInnermost(t *testing.T) {
	a, err := fastSpec("a").Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := fastSpec("a").Expand()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Expand is not deterministic")
	}
	if len(a) != 8 {
		t.Fatalf("expanded %d jobs, want 8", len(a))
	}
	// Seeds are the innermost dimension: replicates of one point must be
	// adjacent so they stream into the aggregator back to back.
	for i := 0; i < len(a); i += 2 {
		p0, p1 := a[i].Point, a[i+1].Point
		if p0.Seed != 1 || p1.Seed != 2 {
			t.Fatalf("jobs %d,%d seeds = %d,%d; want 1,2", i, i+1, p0.Seed, p1.Seed)
		}
		p0.Seed, p1.Seed = 0, 0
		if p0 != p1 {
			t.Fatalf("jobs %d,%d differ beyond seed", i, i+1)
		}
	}
	for i, j := range a {
		if j.Index != i {
			t.Fatalf("job %d has Index %d", i, j.Index)
		}
	}
}

func TestFaultSpecCanonicalization(t *testing.T) {
	s := fastSpec("faults")
	s.Protocols = []string{"dctcp+"}
	s.Flows = []int{4}
	s.Seeds = []uint64{1}
	s.Faults = []string{"delay, loss"}
	jobs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	s2 := s
	s2.Faults = []string{"loss,delay"}
	jobs2, _ := s2.Expand()
	if jobs[0].Point.Faults != jobs2[0].Point.Faults {
		t.Fatalf("equivalent fault specs canonicalize differently: %q vs %q",
			jobs[0].Point.Faults, jobs2[0].Point.Faults)
	}
	if jobs[0].Point.Key("v") != jobs2[0].Point.Key("v") {
		t.Fatal("equivalent fault specs produce different cache keys")
	}
}

func TestPointKeyScopesCodeVersion(t *testing.T) {
	pt := Point{Proto: "dctcp", Flows: 4, Seed: 1}
	if pt.Key("v1") == pt.Key("v2") {
		t.Fatal("cache key ignores code version")
	}
	other := pt
	other.Seed = 2
	if pt.Key("v1") == other.Key("v1") {
		t.Fatal("cache key ignores seed")
	}
	if pt.GroupKey() != other.GroupKey() {
		t.Fatal("group key should be seed-invariant")
	}
}

// TestPointKeyCoversEveryField is the cache-key completeness proof, run
// rather than read: changing any one field of Point alone changes Key, so a
// field added later that misses the digest — unexported, tagged json:"-",
// dropped by a custom marshaller — fails here by name instead of aliasing
// distinct experiments onto one cache entry. GroupKey must move with every
// field except the two seeds it exists to ignore.
func TestPointKeyCoversEveryField(t *testing.T) {
	var base Point
	for i := 0; i < reflect.TypeOf(base).NumField(); i++ {
		f := reflect.TypeOf(base).Field(i)
		if !f.IsExported() {
			t.Errorf("field %s is unexported: json.Marshal skips it, so it cannot reach Key", f.Name)
			continue
		}
		pt := base
		switch v := reflect.ValueOf(&pt).Elem().Field(i); v.Kind() {
		case reflect.String:
			v.SetString("x")
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int64:
			v.SetInt(1)
		case reflect.Uint64:
			v.SetUint(1)
		default:
			t.Fatalf("field %s: teach this test to change a %s", f.Name, v.Kind())
		}
		if pt.Key("v") == base.Key("v") {
			t.Errorf("changing field %s alone leaves Key unchanged: it does not reach the cache digest", f.Name)
		}
		isSeed := f.Name == "Seed" || f.Name == "FaultSeed"
		if moved := pt.GroupKey() != base.GroupKey(); moved == isSeed {
			t.Errorf("changing field %s alone: GroupKey moved = %v, want %v", f.Name, moved, !isSeed)
		}
	}
}

// TestResultEncodingGolden pins the cache object format: one fixed Result,
// every field set, marshals to the bytes in testdata/result.golden.json.
// Cached entries written by an earlier build are read back through this
// encoding, so a change to a JSON name, to the field order or to how a
// field is promoted moves the bytes and fails here.
func TestResultEncodingGolden(t *testing.T) {
	r := Result{
		Point: Point{Topo: TopoHULL, Proto: "dctcp+", Flows: 200, RTOMin: 200 * sim.Millisecond,
			Faults: "blackout,loss", FaultSeed: 7, Seed: 3, Rounds: 50, WarmupRounds: 10,
			TotalBytes: 1 << 20, BytesPerFlow: 4096, Jitter: 4 * sim.Millisecond,
			MaxSimTime: 30 * 60 * sim.Second, Oracle: true},
		Summary: exp.Summary{
			GoodputMbps:      stats.Summary{Count: 40, Mean: 688.5, Std: 12.25, Min: 601.125, Max: 741, P50: 690.0625, P95: 730.5, P99: 739.75},
			FCTms:            stats.Summary{Count: 40, Mean: 12.1875, Std: 0.5, Min: 11.3125, Max: 13.96, P50: 12.125, P95: 13.5, P99: 13.875},
			Timeouts:         17,
			FLossTO:          11,
			LAckTO:           6,
			TimeoutRoundFrac: 0.002125,
			MinCwndECEFrac:   0.4375,
			BottleneckDrops:  93,
			Rounds:           40,
			SimTime:          812345678 * sim.Nanosecond,
		},
		OracleViolations: 5,
		OracleSample:     []string{"rto: flow 3 <late> & \"early\"\n\tat 1ms", "... (1 more violations)"},
	}
	got, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "result.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got, '\n'), want) {
		t.Errorf("cache object encoding moved:\n got: %s\nwant: %s", got, want)
	}
	var back Result
	if err := json.Unmarshal(want, &back); err != nil || !reflect.DeepEqual(back, r) {
		t.Errorf("golden object decodes to %+v (err %v), want %+v", back, err, r)
	}
}

func TestCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := Result{
		Point:   Point{Proto: "dctcp+", Flows: 8, Seed: 3, Rounds: 5, WarmupRounds: 1},
		Summary: exp.Summary{Timeouts: 7, BottleneckDrops: 11, SimTime: 42 * sim.Millisecond},
	}
	want.GoodputMbps.Mean = 123.456
	want.FCTms.P99 = 9.5
	key := want.Point.Key("test-version")

	if _, ok, err := c.Get(key); err != nil || ok {
		t.Fatalf("Get before Put: ok=%v err=%v", ok, err)
	}
	if err := c.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}

	// Corrupt objects are misses-with-error, not crashes.
	if err := os.WriteFile(c.Path(key), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get(key); ok || err == nil {
		t.Fatalf("corrupt object: ok=%v err=%v, want miss with error", ok, err)
	}
}

// runOutcome runs a spec with the given worker count and cache dir,
// returning the outcome and the rendered aggregate table.
func runOutcome(t *testing.T, spec Spec, workers int, cacheDir string, resume bool) (*Outcome, string) {
	t.Helper()
	r := Runner{Workers: workers, CodeVersion: "test-version", Resume: resume}
	if cacheDir != "" {
		c, err := OpenCache(cacheDir)
		if err != nil {
			t.Fatal(err)
		}
		r.Cache = c
	}
	out, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGroups(&buf, out.Groups); err != nil {
		t.Fatal(err)
	}
	return out, buf.String()
}

func TestWorkerCountInvariance(t *testing.T) {
	spec := fastSpec("invariance")
	o1, t1 := runOutcome(t, spec, 1, "", false)
	o4, t4 := runOutcome(t, spec, 4, "", false)
	if !reflect.DeepEqual(o1.Results, o4.Results) {
		t.Fatal("results differ between 1 and 4 workers")
	}
	if t1 != t4 {
		t.Fatalf("aggregate tables differ between 1 and 4 workers:\n%s\n---\n%s", t1, t4)
	}
	if o1.Misses != o1.Jobs || o4.Misses != o4.Jobs {
		t.Fatal("cacheless run should report all jobs as misses")
	}

	// With a cache, the statuses, the hit/miss counts and the journal
	// (its host wall times masked) are worker-count invariant too.
	wallNs := regexp.MustCompile(`"wall_ns":\d+`)
	var journals [2]string
	for n, workers := range []int{1, 4} {
		dir := t.TempDir()
		o, table := runOutcome(t, spec, workers, dir, false)
		if !reflect.DeepEqual(o.Status, o1.Status) || o.Hits != o1.Hits || o.Misses != o1.Misses || table != t1 {
			t.Fatalf("%d workers with a cache: status %v, %d hits, %d misses; want %v, %d, %d and the cacheless table",
				workers, o.Status, o.Hits, o.Misses, o1.Status, o1.Hits, o1.Misses)
		}
		data, err := os.ReadFile(manifestPath(dir, spec.Name))
		if err != nil {
			t.Fatal(err)
		}
		journals[n] = wallNs.ReplaceAllString(string(data), `"wall_ns":0`)
	}
	if journals[0] != journals[1] {
		t.Fatalf("journals differ between 1 and 4 workers:\n%s\n---\n%s", journals[0], journals[1])
	}
}

func TestCacheHitSecondPassIdentical(t *testing.T) {
	spec := fastSpec("rerun")
	dir := t.TempDir()
	first, table1 := runOutcome(t, spec, 4, dir, false)
	if first.Hits != 0 || first.Misses != first.Jobs {
		t.Fatalf("first pass: hits=%d misses=%d", first.Hits, first.Misses)
	}
	second, table2 := runOutcome(t, spec, 4, dir, true)
	if second.Hits != second.Jobs || second.Misses != 0 {
		t.Fatalf("second pass: hits=%d misses=%d, want all hits", second.Hits, second.Misses)
	}
	if !reflect.DeepEqual(first.Results, second.Results) {
		t.Fatal("cached results differ from computed results")
	}
	if table1 != table2 {
		t.Fatalf("aggregate tables differ across cache states:\n%s\n---\n%s", table1, table2)
	}
}

// FuzzCacheGet: whatever bytes sit under a job's key — a torn write, a
// foreign object, garbage — the runner's cache read gives a miss, an error
// or a hit that echoes the requesting point: never a panic, never another
// job's result. The seeds are the three PR 21 cases, which
// TestCacheHitMustEchoPoint drives end to end through Runner.Run (each
// counts as one cache error and its job re-runs), plus the echoing object.
func FuzzCacheGet(f *testing.F) {
	pt := Point{Topo: TopoDefault, Proto: "dctcp+", Flows: 40, RTOMin: 10 * sim.Millisecond, Seed: 1,
		Rounds: 5, WarmupRounds: 1, TotalBytes: 1 << 20, Jitter: 4 * sim.Millisecond, MaxSimTime: sim.Second}
	other := pt
	other.Seed = 2
	marshal := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add([]byte("{}"))
	f.Add(marshal(map[string]any{"point": map[string]any{"topo": pt.Topo, "proto": pt.Proto}}))
	f.Add(marshal(Result{Point: other, Summary: exp.Summary{Timeouts: 3}}))
	f.Add(marshal(Result{Point: pt, Summary: exp.Summary{Timeouts: 3}}))
	c, err := OpenCache(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	key := pt.Key("fuzz")
	if err := os.MkdirAll(filepath.Dir(c.Path(key)), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, object []byte) {
		if err := os.WriteFile(c.Path(key), object, 0o644); err != nil {
			t.Fatal(err)
		}
		res, ok, err := c.lookup(key, pt)
		switch {
		case err != nil && ok:
			t.Fatalf("lookup reports a hit and an error (%v)", err)
		case ok && res.Point != pt:
			t.Fatalf("lookup hit with another job's point %+v", res.Point)
		}
	})
}

// A cache hit must echo the requesting point. Cache.Get accepts anything
// that unmarshals, so an object that decodes without being this job's
// result must count as a cache error and the job must re-run — and the
// re-run's Put repairs the object.
func TestCacheHitMustEchoPoint(t *testing.T) {
	spec := fastSpec("echo")
	dir := t.TempDir()
	first, table1 := runOutcome(t, spec, 2, dir, false)
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) string { return first.Results[i].Point.Key("test-version") }
	marshal := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// Job 0's point with every field after proto cut off.
	truncated := marshal(map[string]any{"point": map[string]any{
		"topo": first.Results[0].Point.Topo, "proto": first.Results[0].Point.Proto}})
	for _, tc := range []struct {
		name   string
		job    int
		object []byte
	}{
		{"empty object", 0, []byte("{}")},
		{"truncated but valid", 0, truncated},
		{"misplaced", 1, marshal(first.Results[2])},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(c.Path(key(tc.job)), tc.object, 0o644); err != nil {
				t.Fatal(err)
			}
			out, table := runOutcome(t, spec, 2, dir, true)
			if out.CacheErrs != 1 || out.Misses != 1 || out.Hits != out.Jobs-1 {
				t.Fatalf("cache errors=%d misses=%d hits=%d of %d jobs, want the one bad object re-run",
					out.CacheErrs, out.Misses, out.Hits, out.Jobs)
			}
			if out.Status[tc.job] != StatusMiss {
				t.Fatalf("job %d status %q, want %q", tc.job, out.Status[tc.job], StatusMiss)
			}
			if !reflect.DeepEqual(out.Results, first.Results) || table != table1 {
				t.Fatal("results differ from the first pass: the bad object entered the aggregate")
			}
			if got, ok, err := c.Get(key(tc.job)); err != nil || !ok || !reflect.DeepEqual(got, first.Results[tc.job]) {
				t.Fatalf("object not repaired by the re-run: ok=%v err=%v", ok, err)
			}
		})
	}
}

func TestRunRefusesStaleManifestWithoutResume(t *testing.T) {
	spec := fastSpec("guard")
	dir := t.TempDir()
	runOutcome(t, spec, 2, dir, false)

	r := Runner{Workers: 2, CodeVersion: "test-version"}
	c, _ := OpenCache(dir)
	r.Cache = c
	if _, err := r.Run(context.Background(), spec); err == nil ||
		!strings.Contains(err.Error(), "resume") {
		t.Fatalf("re-run without Resume: err = %v, want resume guard", err)
	}

	// Resuming under a different grid is an error even with Resume set.
	changed := spec
	changed.Flows = []int{4, 8, 12}
	r.Resume = true
	if _, err := r.Run(context.Background(), changed); err == nil ||
		!strings.Contains(err.Error(), "spec hash") {
		t.Fatalf("resume with changed grid: err = %v, want spec-hash mismatch", err)
	}
}

// TestSupersetGridHitsCacheUnderNewName: a changed grid cannot resume the
// old name (above), but under a new name on the same cache every point it
// shares with the old grid is a hit, and its table equals a cold run's.
func TestSupersetGridHitsCacheUnderNewName(t *testing.T) {
	a := fastSpec("a")
	dir := t.TempDir()
	first, _ := runOutcome(t, a, 2, dir, false)

	b := a
	b.Name = "b"
	b.Flows = []int{4, 8, 12}
	out, table := runOutcome(t, b, 2, dir, false)
	if out.Hits != first.Jobs || out.Misses != out.Jobs-first.Jobs {
		t.Fatalf("superset: hits=%d misses=%d of %d jobs, want %d hits (grid a's jobs)",
			out.Hits, out.Misses, out.Jobs, first.Jobs)
	}
	if _, cold := runOutcome(t, b, 2, "", false); table != cold {
		t.Fatalf("superset table differs from a cold run's:\n%s\n---\n%s", table, cold)
	}
}

// TestSweepNameCannotEscapeCacheDir: the sweep name becomes the manifest's
// file name inside the cache directory, so Validate and Run reject a name
// that is not a single path element before creating anything ("../x" used
// to write x.manifest.jsonl beside the cache). The empty name is fine: Spec
// defaults it.
func TestSweepNameCannotEscapeCacheDir(t *testing.T) {
	spec := fastSpec("ok")
	root := t.TempDir()
	c, err := OpenCache(filepath.Join(root, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	r := Runner{Workers: 1, Cache: c, CodeVersion: "test-version"}
	for _, name := range []string{"../x", "a/b", `a\b`, ".", "..", ""} {
		spec.Name = name
		if err := spec.Validate(); (err == nil) != (name == "") {
			t.Errorf("Spec{Name: %q}.Validate() = %v", name, err)
		}
		if name != "" {
			if _, err := r.Run(context.Background(), spec); err == nil {
				t.Errorf("Run accepted sweep name %q", name)
			}
		}
	}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err == nil && strings.Contains(d.Name(), "manifest") {
			t.Errorf("a rejected sweep name still created %s", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestResumeAfterInterrupt(t *testing.T) {
	spec := fastSpec("resume")
	spec.Seeds = []uint64{1, 2, 3, 4} // widen to 16 jobs so the interrupt lands mid-grid
	dir := t.TempDir()

	// First pass: cancel the sweep after 3 jobs finish. With a single
	// worker the pool runs inline and checks ctx before each job, so the
	// other 13 skip.
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := Runner{
		Workers:     1,
		Cache:       c,
		CodeVersion: "test-version",
		Progress:    &cancelAfter{lines: 3, cancel: cancel},
	}
	partial, err := r.Run(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if partial.Skipped == 0 || partial.Completed() == partial.Jobs {
		t.Fatalf("interrupt did not skip work: %d completed, %d skipped",
			partial.Completed(), partial.Skipped)
	}
	if partial.Completed() != 3 {
		t.Fatalf("interrupt after 3 jobs: %d completed, want 3", partial.Completed())
	}

	// Second pass resumes: exactly the uncompleted jobs re-run.
	full, table := runOutcome(t, spec, 2, dir, true)
	if full.Completed() != full.Jobs {
		t.Fatalf("resume left %d jobs incomplete", full.Jobs-full.Completed())
	}
	if full.Hits != partial.Completed() {
		t.Errorf("resume hits = %d, want %d (the interrupted pass's completions)",
			full.Hits, partial.Completed())
	}
	if full.Misses != full.Jobs-partial.Completed() {
		t.Errorf("resume misses = %d, want %d", full.Misses, full.Jobs-partial.Completed())
	}

	// And the result equals an uninterrupted run's.
	_, cleanTable := runOutcome(t, spec, 2, "", false)
	if table != cleanTable {
		t.Fatalf("resumed aggregate differs from clean run:\n%s\n---\n%s", table, cleanTable)
	}
}

// cancelAfter is a Progress writer that cancels its sweep once it has
// received its lines-th progress line.
type cancelAfter struct {
	lines  int
	cancel context.CancelFunc
}

func (c *cancelAfter) Write(p []byte) (int, error) {
	if c.lines--; c.lines == 0 {
		c.cancel()
	}
	return len(p), nil
}

func TestContextCancelSkipsAndReportsError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := Runner{Workers: 2, CodeVersion: "test-version"}
	out, err := r.Run(ctx, fastSpec("canceled"))
	if err == nil {
		t.Fatal("canceled run returned nil error")
	}
	if out.Skipped != out.Jobs {
		t.Fatalf("canceled run: %d skipped of %d", out.Skipped, out.Jobs)
	}
}

// A job that MaxSimTime cuts short of its rounds is a failure, not a
// result: Run names it in its error, and the cache, the manifest and the
// groups never see it, so a rerun computes the point again instead of
// replaying the truncated run as data.
func TestTruncatedJobFailsUncached(t *testing.T) {
	spec := Spec{
		Name:         "truncated",
		Protocols:    []string{"dctcp+"},
		Flows:        []int{40},
		Seeds:        []uint64{1},
		Rounds:       20,
		WarmupRounds: 2,
		MaxSimTime:   5 * sim.Millisecond,
	}
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	objects := func() int {
		n := 0
		filepath.WalkDir(filepath.Join(dir, "objects"), func(_ string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				n++
			}
			return nil
		})
		return n
	}
	for pass, resume := range []bool{false, true} {
		reg := telemetry.NewRegistry()
		r := Runner{Workers: 1, Cache: c, CodeVersion: "test-version", Resume: resume, Telemetry: reg}
		out, err := r.Run(context.Background(), spec)
		if err == nil || !strings.Contains(err.Error(), "N=40") || !strings.Contains(err.Error(), "of 18 measured rounds") {
			t.Fatalf("pass %d: err = %v, want the truncated point named with its rounds", pass, err)
		}
		if out.Failed != 1 || out.Hits != 0 || out.Misses != 0 || len(out.Groups) != 0 {
			t.Fatalf("pass %d: failed/hits/misses/groups = %d/%d/%d/%d, want 1/0/0/0",
				pass, out.Failed, out.Hits, out.Misses, len(out.Groups))
		}
		if n := objects(); n != 0 {
			t.Fatalf("pass %d: %d cache objects written for a truncated job", pass, n)
		}
		var sum int64
		for status, want := range map[string]int{
			StatusHit: out.Hits, StatusMiss: out.Misses, StatusSkipped: out.Skipped, StatusFailed: out.Failed,
		} {
			got := reg.Counter("sweep_jobs_total", telemetry.L("sweep", spec.Name), telemetry.L("status", status)).Value()
			if got != int64(want) {
				t.Errorf("pass %d: sweep_jobs_total{status=%q} = %d, want %d", pass, status, got, want)
			}
			sum += got
		}
		if sum != int64(out.Jobs) {
			t.Errorf("pass %d: sweep_jobs_total sums to %d over %d jobs", pass, sum, out.Jobs)
		}
	}

	spec.Name, spec.MaxSimTime = "sane", 0
	out, _ := runOutcome(t, spec, 1, dir, false)
	if out.Misses != 1 || out.Hits != 0 || out.Results[0].Rounds != 18 {
		t.Fatalf("sane rerun: misses/hits = %d/%d with %d measured rounds, want 1/0 with 18",
			out.Misses, out.Hits, out.Results[0].Rounds)
	}
	if n := objects(); n != 1 {
		t.Fatalf("sane rerun left %d cache objects, want 1", n)
	}
}

func TestManifestJournal(t *testing.T) {
	spec := fastSpec("journal")
	dir := t.TempDir()
	out, _ := runOutcome(t, spec, 2, dir, false)

	data, err := os.ReadFile(manifestPath(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1+out.Jobs {
		t.Fatalf("journal has %d lines, want %d", len(lines), 1+out.Jobs)
	}
	var h manifestHeader
	if err := json.Unmarshal([]byte(lines[0]), &h); err != nil {
		t.Fatal(err)
	}
	if h.Sweep != "journal" || h.SpecHash != spec.Hash() || h.Jobs != out.Jobs {
		t.Fatalf("bad header: %+v", h)
	}
	for i, line := range lines[1:] {
		var e manifestEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if e.Index != i {
			t.Fatalf("journal out of order: line %d has index %d", i+1, e.Index)
		}
		if e.Status != StatusMiss || e.Key == "" {
			t.Fatalf("entry %d: %+v", i, e)
		}
	}
}

// FuzzReadManifestHeader: whatever bytes sit in a journal — a torn last
// line, a torn header, nothing, JSON that is not a header — reading its
// header never panics, a found header comes with no error, and a found
// header written back reads back equal.
func FuzzReadManifestHeader(f *testing.F) {
	h := manifestHeader{Sweep: "fuzz", SpecHash: fastSpec("fuzz").Hash(), CodeVersion: "v1", Jobs: 2}
	var journal bytes.Buffer
	enc := json.NewEncoder(&journal)
	for _, v := range []any{h,
		manifestEntry{Index: 0, Key: "ab12", Status: StatusMiss, WallNs: 1234},
		manifestEntry{Index: 1, Key: "cd34", Status: StatusHit}} {
		if err := enc.Encode(v); err != nil {
			f.Fatal(err)
		}
	}
	whole := journal.Bytes()
	f.Add(whole)
	f.Add(whole[:len(whole)-10])                  // torn last line
	f.Add(whole[:bytes.IndexByte(whole, '\n')-5]) // torn header
	f.Add([]byte{})
	f.Add(append([]byte("\n"), whole...)) // blank first line
	f.Add([]byte("null\n"))
	f.Add([]byte("{}\n"))
	dir := f.TempDir()
	path, back := filepath.Join(dir, "in.manifest.jsonl"), filepath.Join(dir, "back.manifest.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, found, err := readManifestHeader(path)
		if !found {
			return
		}
		if err != nil {
			t.Fatalf("header found with an error: %v", err)
		}
		if err := writeManifest(back, got, &Outcome{}, nil); err != nil {
			t.Fatal(err)
		}
		again, found, err := readManifestHeader(back)
		if !found || err != nil || again != got {
			t.Fatalf("written header %+v reads back as %+v (found %v, err %v)", got, again, found, err)
		}
	})
}

func TestGroupAggregation(t *testing.T) {
	out, table := runOutcome(t, fastSpec("groups"), 2, "", false)
	// 2 protocols × 2 flow counts, seeds folded.
	if len(out.Groups) != 4 {
		t.Fatalf("got %d groups, want 4", len(out.Groups))
	}
	for _, g := range out.Groups {
		if g.Jobs != 2 {
			t.Errorf("group %s folded %d jobs, want 2 (one per seed)", g.Label(), g.Jobs)
		}
		if g.Point.Seed != 0 || g.Point.FaultSeed != 0 {
			t.Errorf("group %s retains a seed", g.Label())
		}
		if g.Goodput.N() != 2 || g.Goodput.Mean() <= 0 {
			t.Errorf("group %s goodput accumulator wrong: n=%d", g.Label(), g.Goodput.N())
		}
	}
	if !strings.Contains(table, "dctcp+ N=8") {
		t.Errorf("table missing expected group label:\n%s", table)
	}
}

// groupsGolden is WriteGroups' table for the spec below, pinned before
// sweep.Group's metrics became plain stats.Welford accumulators: the
// aggregate layer must keep printing these bytes. The two dctcp+ rows were
// re-recorded when DCTCP+'s decrease on entering DCTCP_Time_Des began to
// fire (865.07 -> 909.77 and 659.98 -> 709.99 Mbps).
const groupsGolden = `point                                         runs      goodput     fct_ms    fct_p95    fct_p99  to_frac  timeouts
dctcp N=8 rtomin=10ms                            3       925.49      9.069      9.291      9.324   0.0000         0
dctcp N=120 rtomin=10ms                          3       380.95     22.707     24.704     24.754   0.2972       534
dctcp+ N=8 rtomin=10ms                           3       909.77      9.250      9.770      9.851   0.0000         0
dctcp+ N=120 rtomin=10ms                         3       709.99     11.904     13.155     13.294   0.0000         7
`

// TestWriteGroupsGolden runs 2 protocols × 2 flow counts × 3 seeds (N=120
// times out under DCTCP, so every column carries a non-zero value) and
// compares the aggregate table byte for byte.
func TestWriteGroupsGolden(t *testing.T) {
	spec := fastSpec("golden")
	spec.Flows = []int{8, 120}
	spec.Seeds = []uint64{1, 2, 3}
	if _, table := runOutcome(t, spec, 1, "", false); table != groupsGolden {
		t.Errorf("aggregate table moved:\n--- got ---\n%s--- want ---\n%s", table, groupsGolden)
	}
}

func TestOutcomeJobWallTimings(t *testing.T) {
	out, _ := runOutcome(t, fastSpec("walltime"), 2, "", false)
	for i, ns := range out.JobWallNs {
		if ns <= 0 {
			t.Fatalf("job %d wall time = %d, want > 0 for executed jobs", i, ns)
		}
	}
}

func TestCachePathSharding(t *testing.T) {
	c, err := OpenCache(filepath.Join(t.TempDir(), "nested", "cache"))
	if err != nil {
		t.Fatal(err)
	}
	p := c.Path("abcdef")
	if !strings.HasSuffix(p, filepath.Join("objects", "ab", "abcdef.json")) {
		t.Fatalf("unexpected object path %q", p)
	}
}
