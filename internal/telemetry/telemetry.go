// Package telemetry is the simulation-wide metrics substrate: a Registry
// of named, label-keyed instruments (Counter, Histogram) that every
// hot layer of the stack — switch ports, the TCP engine, the DCTCP alpha
// estimator, the DCTCP+ state machine, and the workload drivers — reports
// into, plus a JSON-lines sink and a per-run Manifest for reproducible,
// diffable experiments.
//
// Design constraints, in order:
//
//  1. Zero cost when off. Every instrument method is nil-safe: a nil
//     *Counter / *Histogram is a no-op, and a nil *Registry hands
//     out nil instruments. Layers therefore attach instruments
//     unconditionally and call them unconditionally; with telemetry
//     disabled the hot path pays one predictable nil check per event.
//
//  2. Plain arithmetic on the hot path. Counter.Add and Histogram.Observe
//     never allocate and never synchronize: histograms use fixed log2
//     buckets (an array indexed by bit length), and every instrument is
//     plain fields. A registry's instruments therefore belong to one
//     goroutine — one run. Parallel runs (RunMany, sweep workers) each
//     fill a registry of their own and fold it into the shared one with
//     Registry.Merge, which holds the destination's lock; counts, sums,
//     buckets and min/max all merge, so the merged registry is exact.
//
//  3. Stamped with simulation time. Runs record their virtual end time via
//     Registry.AdvanceSimTime; snapshots carry the high-water mark so a
//     dump is attributable to a point on the simulation clock, not the
//     wall clock.
//
// Instrument identity is (name, sorted label set). Asking the Registry for
// the same identity twice returns the same instrument, so concurrent flows
// of one experiment point naturally aggregate into shared counters while
// distinct points (labeled e.g. by protocol and flow count) stay separate.
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"dctcpplus/internal/sim"
)

// Label is one key=value dimension of an instrument's identity.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind discriminates the instrument types.
type Kind int

const (
	// KindCounter is a monotonically increasing int64 count.
	KindCounter Kind = iota
	// KindHistogram is a fixed log2-bucket distribution of int64 samples.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindHistogram:
		return "histogram"
	}
	return "?"
}

// Counter is a monotonically increasing event count. The zero value is
// ready to use; a nil Counter is a no-op. It belongs to its registry's
// goroutine (see Registry).
type Counter struct {
	v int64
}

// Add increments the counter by n. Nil-safe; negative deltas are ignored
// (counters are monotone by contract).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v += n
}

// Inc increments the counter by one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// histBuckets is the number of log2 buckets: bucket i holds samples whose
// bit length is i, i.e. bucket 0 holds v=0 and bucket i>=1 holds
// v in [2^(i-1), 2^i - 1]. 65 buckets cover the whole non-negative int64
// range, so Observe never needs a range check beyond clamping negatives.
const histBuckets = 65

// Histogram is a fixed log2-bucket distribution: allocation-free Observe,
// power-of-two resolution (sufficient for queue depths, cwnd sizes,
// slow_time magnitudes and FCTs, which all range over decades). The zero
// value is ready to use; a nil Histogram is a no-op. It belongs to its
// registry's goroutine (see Registry).
type Histogram struct {
	buckets [histBuckets]int64
	count   int64
	sum     int64
	min     int64 // valid only while count > 0
	max     int64
}

func newHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

// Observe records one sample. Negative samples clamp to zero. Nil-safe and
// allocation-free.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))]++
	h.count++
	h.sum += v
	h.min = min(h.min, v)
	h.max = max(h.max, v)
}

// merge folds src's samples into h.
func (h *Histogram) merge(src *Histogram) {
	for i, c := range src.buckets {
		h.buckets[i] += c
	}
	h.count += src.count
	h.sum += src.sum
	h.min = min(h.min, src.min)
	h.max = max(h.max, src.max)
}

// Count returns the number of observations (0 for a nil Histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min returns the smallest observation (0 with no observations).
func (h *Histogram) Min() int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation (0 with no observations).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max
}

// bucketBounds returns the [lo, hi] sample range of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 0
	}
	lo = int64(1) << (i - 1)
	if i >= 63 {
		return lo, math.MaxInt64
	}
	return lo, int64(1)<<i - 1
}

// BucketCount is one occupied histogram bucket in a snapshot: Count
// samples at most UpperBound (bucket ranges are [lower, UpperBound] with
// power-of-two bounds).
type BucketCount struct {
	UpperBound int64 `json:"le"`
	Count      int64 `json:"count"`
}

// Registry is the instrument directory for one or more runs. A nil
// Registry is valid and hands out nil (no-op) instruments, so callers
// attach telemetry unconditionally. Its methods are safe for concurrent
// use, but the instruments it hands out are plain fields: they belong to
// the one goroutine that updates them, a run. Runs that execute in
// parallel each fill a registry of their own and fold it into a shared one
// with Merge.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
	keyBuf  []byte // lookup's key scratch, guarded by mu

	simTimeNs int64 // high-water mark of observed virtual time, guarded by mu
}

type entry struct {
	name   string
	labels []Label
	kind   Kind

	counter *Counter
	hist    *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// stackLabels is how many labels a lookup sorts without a heap copy; the
// simulator's own instruments carry at most three.
const stackLabels = 8

// sortLabels copies labels into dst and sorts them by key with a stable
// insertion sort: label sets are a handful long, and sorting into the
// caller's array keeps a lookup hit off the heap.
func sortLabels(dst, labels []Label) []Label {
	dst = append(dst[:0], labels...)
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j].Key < dst[j-1].Key; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}

// appendKey appends the canonical identity of name and its sorted labels
// to b: name{k=v,...}, or the bare name when there are no labels.
func appendKey(b []byte, name string, sorted []Label) []byte {
	b = append(b, name...)
	if len(sorted) == 0 {
		return b
	}
	b = append(b, '{')
	for i, l := range sorted {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, '=')
		b = append(b, l.Value...)
	}
	return append(b, '}')
}

// instrumentKey builds the canonical identity: name plus sorted labels.
func instrumentKey(name string, labels []Label) string {
	var stack [stackLabels]Label
	return string(appendKey(nil, name, sortLabels(stack[:0], labels)))
}

// lookup returns the entry for (name, labels), creating it on first use,
// and panics on a kind clash — instrument names are a schema, and reusing
// one with a different type is always a bug. A hit allocates nothing: the
// labels are sorted on the stack and the key is built in the registry's
// scratch buffer; the key string and the retained label copy are made only
// for a new entry.
func (r *Registry) lookup(name string, kind Kind, labels []Label) *entry {
	var stack [stackLabels]Label
	sorted := sortLabels(stack[:0], labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lookupLocked(name, kind, sorted)
}

// lookupLocked is lookup with the labels already sorted and r.mu held.
func (r *Registry) lookupLocked(name string, kind Kind, sorted []Label) *entry {
	r.keyBuf = appendKey(r.keyBuf[:0], name, sorted)
	if e, ok := r.entries[string(r.keyBuf)]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("telemetry: %s registered as %v, requested as %v", r.keyBuf, e.kind, kind))
		}
		return e
	}
	e := &entry{name: name, labels: append([]Label(nil), sorted...), kind: kind}
	switch kind {
	case KindCounter:
		e.counter = &Counter{}
	case KindHistogram:
		e.hist = newHistogram()
	}
	r.entries[string(r.keyBuf)] = e
	return e
}

// Counter returns the counter registered under (name, labels), creating it
// on first use. A nil Registry returns a nil (no-op) Counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindCounter, labels).counter
}

// Histogram returns the histogram registered under (name, labels). A nil
// Registry returns a nil (no-op) Histogram.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindHistogram, labels).hist
}

// AdvanceSimTime raises the registry's virtual-time high-water mark.
// Experiment runners call it with the scheduler's final time so snapshots
// are stamped with how much simulation the metrics cover. Nil-safe.
func (r *Registry) AdvanceSimTime(t sim.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.simTimeNs = max(r.simTimeNs, int64(t))
}

// SimTime returns the recorded virtual-time high-water mark.
func (r *Registry) SimTime() sim.Time {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return sim.Time(r.simTimeNs)
}

// Merge folds src — a registry no other goroutine is updating, typically
// one run's own — into r: every instrument of src is added to r's
// instrument of the same identity, created (even at zero) if r lacks it,
// and r's virtual-time stamp rises to src's. Counters, sums, buckets and
// min/max all merge, so merging per-run registries gives exactly the
// registry one shared set of instruments would have. Merge holds r's lock,
// so parallel runs may merge into one registry; src is left as it was.
// Nil-safe in either argument.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.simTimeNs = max(r.simTimeNs, src.simTimeNs)
	// Key order, so a kind clash panics on the same instrument every time.
	keys := make([]string, 0, len(src.entries))
	for k := range src.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		se := src.entries[k]
		e := r.lookupLocked(se.name, se.kind, se.labels)
		switch se.kind {
		case KindCounter:
			e.counter.v += se.counter.v
		case KindHistogram:
			e.hist.merge(se.hist)
		}
	}
}

// Len returns the number of registered instruments.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// InstrumentSnapshot is the frozen state of one instrument. Counters use
// Value; histograms use Count/Sum/Min/Max/Buckets.
type InstrumentSnapshot struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Kind   string  `json:"kind"`

	Value int64 `json:"value,omitempty"`

	Count   int64         `json:"count,omitempty"`
	Sum     int64         `json:"sum,omitempty"`
	Min     int64         `json:"min,omitempty"`
	Max     int64         `json:"max,omitempty"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// key reproduces the registry identity for ordering and diffing.
func (s InstrumentSnapshot) key() string {
	return instrumentKey(s.Name, s.Labels)
}

// Snapshot is the frozen state of a whole registry, stamped with the
// virtual-time high-water mark.
type Snapshot struct {
	//lint:allow simtime JSON schema field; the unit is pinned by the wire format
	SimTimeNs   int64                `json:"sim_time_ns"`
	Instruments []InstrumentSnapshot `json:"instruments"`
}

// Snapshot freezes the registry. Instruments appear in deterministic
// (sorted-key) order so two snapshots of equivalent runs diff cleanly.
// It holds the registry's lock, so it may run beside Merge, but not
// beside updates to the registry's own instruments. A nil Registry
// yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	entries := make([]*entry, 0, len(r.entries))
	keys := make([]string, 0, len(r.entries))
	for k, e := range r.entries {
		keys = append(keys, k)
		entries = append(entries, e)
	}
	sort.Sort(&byKey{keys: keys, entries: entries})

	snap := Snapshot{SimTimeNs: r.simTimeNs}
	for _, e := range entries {
		is := InstrumentSnapshot{
			Name:   e.name,
			Labels: e.labels,
			Kind:   e.kind.String(),
		}
		switch e.kind {
		case KindCounter:
			is.Value = e.counter.Value()
		case KindHistogram:
			h := e.hist
			is.Count = h.Count()
			is.Sum = h.Sum()
			is.Min = h.Min()
			is.Max = h.Max()
			for i := 0; i < histBuckets; i++ {
				if c := h.buckets[i]; c > 0 {
					_, hi := bucketBounds(i)
					is.Buckets = append(is.Buckets, BucketCount{UpperBound: hi, Count: c})
				}
			}
		}
		snap.Instruments = append(snap.Instruments, is)
	}
	return snap
}

// byKey sorts entries by their registry key, keeping the two slices in
// lockstep.
type byKey struct {
	keys    []string
	entries []*entry
}

func (s *byKey) Len() int           { return len(s.keys) }
func (s *byKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *byKey) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.entries[i], s.entries[j] = s.entries[j], s.entries[i]
}

// Find returns the snapshot of the instrument with the given name and
// labels, or false if absent. Convenience for tests and acceptance checks.
func (s Snapshot) Find(name string, labels ...Label) (InstrumentSnapshot, bool) {
	key := instrumentKey(name, labels)
	for _, is := range s.Instruments {
		if is.key() == key {
			return is, true
		}
	}
	return InstrumentSnapshot{}, false
}

// Total sums Value (counters) and Count (histograms) across every
// instrument whose name matches, regardless of labels — the "how many CE
// marks happened in this run, anywhere" query.
func (s Snapshot) Total(name string) int64 {
	var t int64
	for _, is := range s.Instruments {
		if is.Name != name {
			continue
		}
		t += is.Value + is.Count
	}
	return t
}

// Attacher is implemented by components that can wire themselves onto a
// registry (congestion-control modules, workload drivers). Experiment
// runners discover it by type assertion so layers stay decoupled.
type Attacher interface {
	AttachTelemetry(reg *Registry, labels ...Label)
}

// Flusher is implemented by components holding open telemetry intervals
// (e.g. DCTCP+'s state-occupancy clock). Runners call it once at the end
// of a run with the final virtual time.
type Flusher interface {
	FlushTelemetry(now sim.Time)
}
