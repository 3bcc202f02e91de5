// Package sharedcapture exercises the sharedstate analyzer: locals
// captured by reference and written inside concurrently executed closures
// — pool.ForEach bodies and goroutines spawned from sweep-reachable code.
package sharedcapture

import (
	"sync"

	"dctcpplus/internal/sweep/pool"
)

// Tally fans out over the worker pool and races on its accumulators; the
// slot writes indexed by a parameter — the job's result slot, the calling
// worker's own scratch — are the sanctioned idioms and stay clean.
func Tally(xs []float64) float64 {
	sum := 0.0
	seen := map[int]bool{}
	out := make([]float64, len(xs))
	scratch := make([][]float64, pool.Width(2, len(xs)))
	pool.ForEach(2, len(xs), func(w, i int) {
		sum += xs[i]                           // flagged: captured scalar, workers race
		seen[i] = true                         // flagged: captured map — racy regardless of key
		out[i] = xs[i]                         // clean: the slot of index i
		scratch[w] = append(scratch[w], xs[i]) // clean: worker w's own slot
	})
	total := 0.0
	for _, v := range out {
		total += v
	}
	return total
}

// Guarded serializes every captured write behind a mutex: clean.
func Guarded(xs []float64) float64 {
	var mu sync.Mutex
	sum := 0.0
	pool.ForEach(2, len(xs), func(_, i int) {
		v := xs[i]
		mu.Lock()
		sum += v
		mu.Unlock()
	})
	return sum
}

// counters is package-level state; its write below is a sweep-code write.
var counters = map[string]int{}

// Job spawns a goroutine from a sweep job body: both the captured-local
// write and the package-level one are reported.
//
//sweep:job
func Job(n int) int {
	local := 0
	go func() {
		local += n           // flagged by sharedstate: captured local
		counters["done"] = 1 // flagged by sharedstate: package-level
	}()
	return local
}

// AfterUnlock writes once under the mutex and once after releasing it:
// only the second write races.
func AfterUnlock(xs []float64) float64 {
	var mu sync.Mutex
	sum, late := 0.0, 0.0
	pool.ForEach(2, len(xs), func(_, i int) {
		mu.Lock()
		sum += xs[i]
		mu.Unlock()
		late += xs[i] // flagged: the lock was released
	})
	return sum + late
}
