package exp

import (
	"fmt"

	"dctcpplus/internal/sweep/pool"
)

// Parallelism controls how many experiment points RunMany executes
// concurrently. Each point is an independent, fully deterministic
// simulation, so running them on separate goroutines changes wall-clock
// time only — never results. The fan-out itself is the shared worker pool
// in internal/sweep/pool; this variable only sets its width for the
// exp-level batches (internal/sweep's Runner has its own Workers knob).
var Parallelism = pool.DefaultWorkers()

// RunMany executes a batch of incast points concurrently — the only
// fan-out in this package; results are positionally identical to calling
// RunIncast on each element in turn. Each pool worker runs its points on
// its own Rig, kept for this call only.
//
// Every point is validated before any runs: a bad one panics here, on the
// calling goroutine and naming its index, where the caller can recover it —
// not inside a pool worker, and not after its neighbours already ran.
func RunMany(optList []IncastOptions) []IncastResult {
	for i, o := range optList {
		if err := o.validate(); err != nil {
			panic(fmt.Sprintf("exp: RunMany point %d: %v", i, err))
		}
	}
	out := make([]IncastResult, len(optList))
	rigs := make([]Rig, pool.Width(Parallelism, len(optList)))
	pool.ForEach(Parallelism, len(optList), func(w, i int) {
		out[i] = rigs[w].Run(optList[i])
	})
	return out
}
