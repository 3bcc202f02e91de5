package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"dctcpplus/internal/sim"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(3)
	c.Inc()
	c.Add(0)
	c.Add(-5)
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	var nilC *Counter
	nilC.Add(1)
	nilC.Inc()
	if got := nilC.Value(); got != 0 {
		t.Fatalf("nil counter = %d, want 0", got)
	}
}

func TestHistogram(t *testing.T) {
	h := newHistogram()
	for _, v := range []int64{0, 1, 2, 3, 100, 1 << 20, -7} {
		h.Observe(v)
	}
	if got := h.Count(); got != 7 {
		t.Fatalf("count = %d, want 7", got)
	}
	// -7 clamps to 0.
	if got := h.Sum(); got != 0+1+2+3+100+(1<<20)+0 {
		t.Fatalf("sum = %d", got)
	}
	if got := h.Min(); got != 0 {
		t.Fatalf("min = %d, want 0", got)
	}
	if got := h.Max(); got != 1<<20 {
		t.Fatalf("max = %d, want %d", got, 1<<20)
	}

	var nilH *Histogram
	nilH.Observe(1)
	if nilH.Count() != 0 || nilH.Sum() != 0 || nilH.Min() != 0 || nilH.Max() != 0 {
		t.Fatal("nil histogram must report zeros")
	}

	empty := newHistogram()
	if empty.Min() != 0 || empty.Max() != 0 {
		t.Fatal("empty histogram stats must be 0")
	}
}

func TestBucketBounds(t *testing.T) {
	cases := []struct {
		i      int
		lo, hi int64
	}{
		{0, 0, 0},
		{1, 1, 1},
		{2, 2, 3},
		{3, 4, 7},
		{10, 512, 1023},
		{63, 1 << 62, math.MaxInt64},
		{64, math.MinInt64, math.MaxInt64}, // lo overflows but hi caps; index 64 only holds MaxInt64 samples
	}
	for _, c := range cases[:6] {
		lo, hi := bucketBounds(c.i)
		if lo != c.lo || hi != c.hi {
			t.Errorf("bucketBounds(%d) = (%d, %d), want (%d, %d)", c.i, lo, hi, c.lo, c.hi)
		}
	}
	// Every non-negative int64 maps to a valid bucket index.
	h := newHistogram()
	h.Observe(math.MaxInt64)
	if h.Max() != math.MaxInt64 {
		t.Fatal("MaxInt64 sample lost")
	}
}

func TestRegistryIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", L("proto", "dctcp+"), L("flows", "20"))
	b := r.Counter("x_total", L("flows", "20"), L("proto", "dctcp+")) // label order irrelevant
	if a != b {
		t.Fatal("same identity must return the same counter")
	}
	c := r.Counter("x_total", L("flows", "60"), L("proto", "dctcp+"))
	if a == c {
		t.Fatal("distinct labels must return distinct counters")
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if h1, h2 := r.Histogram("h"), r.Histogram("h"); h1 != h2 {
		t.Fatal("same identity must return the same histogram")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("kind clash must panic")
		}
	}()
	r.Histogram("x_total", L("proto", "dctcp+"), L("flows", "20"))
}

func TestNilRegistry(t *testing.T) {
	var r *Registry
	if r.Counter("c") != nil || r.Histogram("h") != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	r.AdvanceSimTime(5)
	if r.SimTime() != 0 || r.Len() != 0 {
		t.Fatal("nil registry must report zeros")
	}
	snap := r.Snapshot()
	if snap.SimTimeNs != 0 || len(snap.Instruments) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

// TestNilReceiversAreNoOps is the contract the hot layers rely on when they
// attach and call instruments unconditionally: every exported method of the
// three instrument types returns its zero result on a typed nil receiver
// instead of dereferencing it. Reflection enumerates the methods, so one
// added later is covered without being listed here. Arguments are non-zero:
// a guard like Counter.Add's `c == nil || n <= 0` must not pass on n alone,
// and Registry.Merge gets a registry holding an instrument.
func TestNilReceiversAreNoOps(t *testing.T) {
	for _, nilPtr := range []any{(*Counter)(nil), (*Histogram)(nil), (*Registry)(nil)} {
		recv := reflect.ValueOf(nilPtr)
		for i := 0; i < recv.NumMethod(); i++ {
			name := recv.Type().Elem().Name() + "." + recv.Type().Method(i).Name
			fn := recv.Method(i)
			var args []reflect.Value
			for j := 0; j < fn.Type().NumIn(); j++ {
				if fn.Type().IsVariadic() && j == fn.Type().NumIn()-1 {
					break // an empty variadic tail
				}
				arg := reflect.New(fn.Type().In(j)).Elem()
				switch arg.Kind() {
				case reflect.Int64:
					arg.SetInt(1)
				case reflect.String:
					arg.SetString("x")
				case reflect.Pointer:
					if arg.Type() != reflect.TypeOf((*Registry)(nil)) {
						t.Fatalf("%s: teach this test to build a %s argument", name, arg.Type())
					}
					src := NewRegistry() // Merge's source: non-empty, so only the nil guard can skip it
					src.Counter("c").Inc()
					arg.Set(reflect.ValueOf(src))
				default:
					t.Fatalf("%s: teach this test to build a %s argument", name, arg.Kind())
				}
				args = append(args, arg)
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s panics on a nil receiver: %v", name, r)
					}
				}()
				for _, out := range fn.Call(args) {
					if !out.IsZero() {
						t.Errorf("%s on a nil receiver returned %v, want the zero value", name, out)
					}
				}
			}()
		}
	}
}

func TestAdvanceSimTime(t *testing.T) {
	r := NewRegistry()
	r.AdvanceSimTime(100)
	r.AdvanceSimTime(50) // high-water mark: no regression
	if got := r.SimTime(); got != 100 {
		t.Fatalf("SimTime = %v, want 100", got)
	}
	r.AdvanceSimTime(200)
	if got := r.SimTime(); got != 200 {
		t.Fatalf("SimTime = %v, want 200", got)
	}
}

func buildSnapshot(t *testing.T) Snapshot {
	t.Helper()
	r := NewRegistry()
	r.Counter("netsim_port_ce_marked_pkts_total", L("port", "bottleneck")).Add(42)
	r.Counter("dctcp_alpha_updates_total", L("proto", "dctcp+")).Add(5)
	h := r.Histogram("tcp_cwnd_mss")
	for _, v := range []int64{1, 1, 2, 4, 8} {
		h.Observe(v)
	}
	r.AdvanceSimTime(sim.Time(1_500_000))
	return r.Snapshot()
}

func TestSnapshotFindAndTotal(t *testing.T) {
	snap := buildSnapshot(t)
	if len(snap.Instruments) != 3 {
		t.Fatalf("instruments = %d, want 3", len(snap.Instruments))
	}
	is, ok := snap.Find("netsim_port_ce_marked_pkts_total", L("port", "bottleneck"))
	if !ok || is.Value != 42 {
		t.Fatalf("Find counter: ok=%v value=%d", ok, is.Value)
	}
	if _, ok := snap.Find("netsim_port_ce_marked_pkts_total", L("port", "other")); ok {
		t.Fatal("Find must miss on wrong labels")
	}
	if got := snap.Total("tcp_cwnd_mss"); got != 5 {
		t.Fatalf("Total(histogram) = %d, want 5", got)
	}
	if got := snap.Total("netsim_port_ce_marked_pkts_total"); got != 42 {
		t.Fatalf("Total(counter) = %d, want 42", got)
	}
	// Deterministic sorted order.
	for i := 1; i < len(snap.Instruments); i++ {
		if snap.Instruments[i-1].key() > snap.Instruments[i].key() {
			t.Fatal("snapshot instruments not sorted")
		}
	}
}

func TestWriteJSONLines(t *testing.T) {
	snap := buildSnapshot(t)
	var buf bytes.Buffer
	if err := snap.WriteJSONLines(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(snap.Instruments) {
		t.Fatalf("lines = %d, want %d", len(lines), 1+len(snap.Instruments))
	}
	var header struct {
		SimTimeNs   int64 `json:"sim_time_ns"`
		Instruments int   `json:"instruments"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatalf("header: %v", err)
	}
	if header.SimTimeNs != 1_500_000 || header.Instruments != 3 {
		t.Fatalf("header = %+v", header)
	}
	for _, ln := range lines[1:] {
		var is InstrumentSnapshot
		if err := json.Unmarshal([]byte(ln), &is); err != nil {
			t.Fatalf("instrument line %q: %v", ln, err)
		}
		if is.Name == "" || is.Kind == "" {
			t.Fatalf("instrument line missing name/kind: %q", ln)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("tcp_rto_total", L("proto", "dctcp")).Add(7)
	r.Histogram("workload_round_fct_ns").Observe(123456)
	r.AdvanceSimTime(999)

	m, err := NewManifest("report", 42)
	if err != nil {
		t.Fatal(err)
	}
	m.SetConfig("rounds", 50)
	m.SetConfig("warmup", 10)
	m.Finish(r, 3*time.Second)

	if m.SimTimeNs != 999 || m.WallNs != int64(3*time.Second) {
		t.Fatalf("manifest stamps: sim=%d wall=%d", m.SimTimeNs, m.WallNs)
	}
	if is, ok := (Snapshot{Instruments: m.Metrics}).Find("tcp_rto_total", L("proto", "dctcp")); !ok || is.Value != 7 {
		t.Fatalf("metric lookup: ok=%v %+v", ok, is)
	}

	var buf bytes.Buffer
	if err := m.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := new(Manifest)
	if err := json.Unmarshal(buf.Bytes(), got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round-trip mismatch:\nenc: %+v\ndec: %+v", m, got)
	}
}

// TestManifestNamesTheExecutable: a manifest's code_version is the SHA-256
// of the running executable — the same identity that scopes sweep caches
// — and it is what the JSON carries.
func TestManifestNamesTheExecutable(t *testing.T) {
	m, err := NewManifest("report", 1)
	if err != nil {
		t.Fatal(err)
	}
	v, err := CodeVersion()
	if err != nil || m.CodeVersion != v || !strings.HasPrefix(v, "sha256:") || len(v) != len("sha256:")+64 {
		t.Fatalf("manifest code_version %q, CodeVersion() = %q, %v; want sha256: and 64 hex digits", m.CodeVersion, v, err)
	}
	var buf bytes.Buffer
	if err := m.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `"code_version": "` + v + `"`; !strings.Contains(buf.String(), want) {
		t.Fatalf("manifest JSON lacks %s:\n%s", want, buf.String())
	}
}

func TestManifestFile(t *testing.T) {
	m, err := NewManifest("incast", 1)
	if err != nil {
		t.Fatal(err)
	}
	m.SetConfig("flows", "200")
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := WriteManifestFile(path, m); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := new(Manifest)
	if err := json.Unmarshal(data, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("file round-trip mismatch:\nwrote: %+v\nread: %+v", m, got)
	}
}

// The ISSUE's hard requirement: the hot path must not allocate, live or
// disabled.
func TestHotPathAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h")
	var nilC *Counter
	var nilH *Histogram

	checks := []struct {
		name string
		fn   func()
	}{
		{"Counter.Add", func() { c.Add(1) }},
		{"Histogram.Observe", func() { h.Observe(12345) }},
		{"nil Counter.Add", func() { nilC.Add(1) }},
		{"nil Histogram.Observe", func() { nilH.Observe(12345) }},
	}
	for _, ck := range checks {
		if allocs := testing.AllocsPerRun(1000, ck.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per op, want 0", ck.name, allocs)
		}
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterAddNil(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkHistogramObserveNil(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

// TestRegistryLookupAllocFree: attaching N connections asks for the same
// instruments N times, so a lookup that finds its instrument must not
// allocate, whatever order the labels come in.
func TestRegistryLookupAllocFree(t *testing.T) {
	r := NewRegistry()
	labels := []Label{L("proto", "dctcp+"), L("flows", "200"), L("state", "timeinc")}
	permuted := []Label{labels[2], labels[0], labels[1]}
	c := r.Counter("x_total", labels...)
	h := r.Histogram("x_ns", labels...)
	bare := r.Counter("bare_total")

	checks := []struct {
		name string
		fn   func() bool
	}{
		{"Counter", func() bool { return r.Counter("x_total", permuted...) == c }},
		{"Histogram", func() bool { return r.Histogram("x_ns", permuted...) == h }},
		{"Counter, literal labels", func() bool {
			return r.Counter("x_total", L("flows", "200"), L("state", "timeinc"), L("proto", "dctcp+")) == c
		}},
		{"Counter, no labels", func() bool { return r.Counter("bare_total") == bare }},
	}
	for _, ck := range checks {
		if !ck.fn() {
			t.Errorf("%s: a permuted repeat lookup returned a different instrument", ck.name)
		}
		if allocs := testing.AllocsPerRun(100, func() { ck.fn() }); allocs != 0 {
			t.Errorf("%s: a repeat lookup allocates %.1f times, want 0", ck.name, allocs)
		}
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}

	// Past the stack array the labels spill to the heap; identity holds.
	var many []Label
	for _, k := range []string{"i", "h", "g", "f", "e", "d", "c", "b", "a"} {
		many = append(many, L(k, k+k))
	}
	wide := r.Counter("wide_total", many...)
	slices.Reverse(many)
	if r.Counter("wide_total", many...) != wide {
		t.Error("nine permuted labels returned a different instrument")
	}

	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "x_total{flows=200,proto=dctcp+,state=timeinc}") {
			t.Fatalf("kind clash panic %q does not name the key", msg)
		}
	}()
	r.Histogram("x_total", permuted...)
}

// TestMergeIsExact: runs that each fill a registry of their own and merge
// it into a shared one leave the shared registry equal to one that every
// run updated directly — counts, sums, buckets, min/max, instruments
// registered at zero, empty histograms and the sim-time stamp — and the
// sources unchanged.
func TestMergeIsExact(t *testing.T) {
	type run struct {
		counts  []int64
		samples []int64
		at      sim.Time
	}
	runs := []run{
		{counts: []int64{3, 0}, samples: []int64{5, 0, 1 << 40}, at: 700},
		{counts: []int64{0, 9}, samples: []int64{-3, 17}, at: 300},
		{counts: []int64{1, 1}, at: 900},
	}
	fill := func(r *Registry, rn run, i int) {
		label := L("run", strconv.Itoa(i%2))
		r.Counter("a_total", label).Add(rn.counts[0])
		r.Counter("b_total").Add(rn.counts[1])
		h := r.Histogram("h_ns", label)
		for _, v := range rn.samples {
			h.Observe(v)
		}
		r.Histogram("empty_ns")
		r.AdvanceSimTime(rn.at)
	}
	direct, merged := NewRegistry(), NewRegistry()
	for i, rn := range runs {
		fill(direct, rn, i)
		own := NewRegistry()
		fill(own, rn, i)
		before := own.Snapshot()
		merged.Merge(own)
		if !reflect.DeepEqual(own.Snapshot(), before) {
			t.Fatalf("run %d: Merge changed its source", i)
		}
	}
	if got, want := merged.Snapshot(), direct.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged snapshot differs from the directly updated one:\n got %+v\nwant %+v", got, want)
	}
	if is, ok := merged.Snapshot().Find("h_ns", L("run", "0")); !ok || is.Min != 0 || is.Max != 1<<40 || is.Count != 3 {
		t.Fatalf("h_ns{run=0} = %+v, %v; want count 3, min 0, max 2^40", is, ok)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("merging a histogram into a counter of the same identity must panic")
		}
	}()
	clash := NewRegistry()
	clash.Histogram("a_total", L("run", "0"))
	merged.Merge(clash)
}
