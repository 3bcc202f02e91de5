// Package pool is the one worker pool behind every parallel experiment
// fan-out in this repository: the sweep runner and internal/exp's RunMany
// (every figure and the resilience grid) draw from it. Each unit of work is
// an independent, fully deterministic simulation (on the calling worker's
// own scheduler and tree, reset to a fresh state between units; private RNG
// streams), so concurrency changes wall-clock time only — never results.
// Centralizing the fan-out here keeps that argument in one place instead of
// re-proving it per call site.
package pool

import (
	"runtime"
	"sync"
)

// DefaultWorkers is the pool width used when a caller passes workers <= 0:
// one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Width is the number of goroutines ForEach(workers, n, ...) runs:
// min(workers, n), with workers <= 0 selecting DefaultWorkers(). A caller
// that keeps per-worker state sizes it with Width.
func Width(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	return min(workers, n)
}

// ForEach runs fn(w, i) for every i in [0, n) across Width(workers, n)
// goroutines and returns when all calls have completed. w in [0, Width) is
// the index of the worker making the call: calls with one w never overlap,
// so fn may keep per-worker state in a slot indexed by w (a sweep worker's
// rig). With one effective worker the calls run inline on the caller's
// goroutine, in index order — the sequential baseline the parallel paths
// are tested against.
//
// fn must otherwise treat shared state as read-only (or guard it itself):
// indices are handed out through a channel, so the assignment of index to
// worker — and therefore any interleaving — is scheduler-dependent by
// design.
func ForEach(workers, n int, fn func(w, i int)) {
	if n <= 0 {
		return
	}
	workers = Width(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(w, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
