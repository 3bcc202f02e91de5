// Package sweepjob exercises sharedstate's sweep-code rule: a //sweep:job root
// whose call chain writes package-level state (flagged at each write), next
// to a clean job that keeps every mutation job-local.
package sweepjob

// results is shared mutable state: every write below is a cross-worker
// data race waiting for a second job.
var results []float64

// counters is shared map state.
var counters = map[string]int{}

// total is a shared scalar.
var total int

// RunJob is a worker-executed job body.
//
//sweep:job
func RunJob(x float64) float64 {
	results = append(results, x) // direct package-level write
	total++                      // inc/dec of a package-level scalar
	return tally(x)
}

// tally writes shared state one static hop from the root: the taint
// carries through the call graph, not just the annotated body.
func tally(x float64) float64 {
	counters["jobs"] = len(results) // indexed write through a package-level map
	delete(counters, "stale")       // mutating builtin on package-level state
	return x
}

// CleanJob builds and mutates only job-local state; reads of the
// package-level table are permitted.
//
//sweep:job
func CleanJob(xs []float64) float64 {
	local := make([]float64, 0, len(xs))
	sum := 0.0
	for _, x := range xs {
		local = append(local, x)
		sum += x
	}
	_ = len(results) // read-only access to shared state is fine
	return sum
}
