package sweep

import (
	"context"
	"fmt"
	"io"
	"time"

	"dctcpplus/internal/exp"
	"dctcpplus/internal/sweep/pool"
	"dctcpplus/internal/telemetry"
)

// Job statuses as recorded in the manifest and Outcome.Status.
const (
	StatusHit     = "hit"     // result served from the cache
	StatusMiss    = "miss"    // result computed (and stored if a cache is open)
	StatusSkipped = "skipped" // not executed: context canceled first
	StatusFailed  = "failed"  // executed without a result: Run reports the first error
)

// Runner executes a sweep: jobs fan out over a bounded worker pool (each
// worker running its jobs on its own exp.Rig for the duration of one Run),
// each checked against the content-addressed cache first, and the completed
// results stream — in job-index order, regardless of completion order —
// through the manifest journal, the per-group aggregators, and the
// OnResult hook. Index-order delivery is what makes every output of a
// sweep byte-identical across worker counts.
type Runner struct {
	// Workers bounds concurrent jobs; <= 0 selects pool.DefaultWorkers().
	Workers int

	// Cache, when non-nil, memoizes completed jobs across runs. Nil runs
	// everything and remembers nothing.
	Cache *Cache

	// CodeVersion scopes cache keys to the build that produced them;
	// empty selects the package-level CodeVersion(). Cached results are
	// reused only under an identical version string.
	CodeVersion string

	// Resume permits continuing a sweep whose manifest already exists in
	// the cache. It is a guard, not a mechanism: resuming is just the
	// cache serving completed jobs, but requiring the flag (and matching
	// spec hashes) keeps a stale sweep name from silently mixing grids.
	Resume bool

	// Telemetry, when non-nil, receives per-job counters and wall-time
	// histograms, and is threaded into every simulation.
	Telemetry *telemetry.Registry

	// Progress, when non-nil, receives coarse progress lines (at most ~20
	// per sweep). Not part of the deterministic output surface: lines
	// include wall-clock timings.
	Progress io.Writer

	// OnResult, when non-nil, is invoked for each completed job in
	// strict index order from the aggregation goroutine. Returning
	// false cancels the remainder of the sweep (in-flight jobs finish;
	// unstarted ones are skipped).
	OnResult func(Job, Result, string) bool
}

// Outcome is the full accounting of one sweep run.
type Outcome struct {
	Name        string
	SpecHash    string
	CodeVersion string

	// Jobs is the expanded grid size; Results and Status are indexed by
	// job index. Skipped and failed jobs leave a zero Result.
	Jobs    int
	Results []Result
	Status  []string

	Hits    int
	Misses  int
	Skipped int
	Failed  int

	// CacheErrs counts cache read/write failures that were downgraded to
	// recomputation or forgone memoization.
	CacheErrs int

	// JobWallNs is per-job execution wall time (0 for hits and skips).
	JobWallNs []int64

	// Groups aggregates the completed results across seeds, in first-job
	// order.
	Groups []*Group
}

// Completed returns the number of jobs with a result (hit or miss).
func (o *Outcome) Completed() int { return o.Hits + o.Misses }

// jobDone crosses from the worker pool to the aggregator.
type jobDone struct {
	idx       int
	res       Result
	status    string
	wallNs    int64
	cacheErrs int    // read/write failures downgraded to recompute/no-memoize
	key       string // the point's cache key, computed once by the worker
	err       error  // why a failed job has no result
}

// Run expands the spec and executes it. The returned Outcome is valid
// (partial) even when err is non-nil: cancellation reports ctx.Err() with
// every completed job accounted and cached, which is what makes an
// interrupted sweep resumable. A job whose run fails (one MaxSimTime cut
// short) is counted in Failed and kept out of the cache, the manifest and
// the groups; the other jobs still run, and Run returns the first such
// error in job order.
func (r *Runner) Run(ctx context.Context, spec Spec) (*Outcome, error) {
	jobs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	name, specHash := spec.normalized().Name, spec.Hash()
	codeVersion := r.CodeVersion
	if codeVersion == "" {
		codeVersion = CodeVersion()
	}
	out := &Outcome{
		Name:        name,
		SpecHash:    specHash,
		CodeVersion: codeVersion,
		Jobs:        len(jobs),
		Results:     make([]Result, len(jobs)),
		Status:      make([]string, len(jobs)),
		JobWallNs:   make([]int64, len(jobs)),
	}

	var man *manifest
	if r.Cache != nil {
		path := manifestPath(r.Cache.Dir(), name)
		prev, found, err := readManifestHeader(path)
		if err != nil {
			return nil, err
		}
		if found {
			if !r.Resume {
				return nil, fmt.Errorf("sweep: %q already has a manifest at %s; pass resume to continue it", name, path)
			}
			if prev.SpecHash != specHash {
				return nil, fmt.Errorf("sweep: cannot resume %q: spec hash %.12s does not match prior run %.12s (the grid changed)",
					name, specHash, prev.SpecHash)
			}
		}
		man, err = createManifest(path, manifestHeader{
			Sweep: name, SpecHash: specHash, CodeVersion: codeVersion, Jobs: len(jobs),
		})
		if err != nil {
			return nil, err
		}
	}

	// Cancellation: ctx aborts from outside, OnResult from inside. Both
	// flip stop; workers consult it before starting each job.
	stop := make(chan struct{})
	var stopped bool
	stopOnce := func() {
		if !stopped {
			stopped = true
			close(stop)
		}
	}
	canceled := func() bool {
		select {
		case <-stop:
			return true
		default:
		}
		select {
		case <-ctx.Done():
			return true
		default:
			return false
		}
	}

	// Instruments are nil-safe: with no registry these are no-op handles.
	label := telemetry.L("sweep", name)
	hitCtr := r.Telemetry.Counter("sweep_jobs_total", label, telemetry.L("status", StatusHit))
	missCtr := r.Telemetry.Counter("sweep_jobs_total", label, telemetry.L("status", StatusMiss))
	skipCtr := r.Telemetry.Counter("sweep_jobs_total", label, telemetry.L("status", StatusSkipped))
	cacheErrCtr := r.Telemetry.Counter("sweep_cache_errors_total", label)
	wallHist := r.Telemetry.Histogram("sweep_job_wall_ns", label)

	// Workers run the grid and push outcomes; the reorder buffer below is
	// the only consumer. The handoff is unbuffered on purpose: aggregation
	// is cheap relative to a simulation, and keeping workers at most one
	// handoff ahead is what lets an OnResult cancellation actually stop
	// the pool instead of racing a drained queue.
	done := make(chan jobDone)
	rigs := make([]exp.Rig, pool.Width(r.Workers, len(jobs)))
	go func() {
		defer close(done)
		pool.ForEach(r.Workers, len(jobs), func(w, i int) {
			j := jobs[i]
			if canceled() {
				done <- jobDone{idx: i, status: StatusSkipped}
				return
			}
			key := j.Point.Key(codeVersion)
			cacheErrs := 0
			if r.Cache != nil {
				res, ok, err := r.Cache.lookup(key, j.Point)
				if err != nil {
					// Unreadable, corrupt or not this job's: count it and
					// re-run.
					cacheErrs++
				} else if ok {
					done <- jobDone{idx: i, res: res, status: StatusHit, key: key}
					return
				}
			}
			start := time.Now()
			res, err := j.run(&rigs[w], r.Telemetry)
			if err != nil {
				done <- jobDone{idx: i, status: StatusFailed, cacheErrs: cacheErrs, err: err}
				return
			}
			wall := time.Since(start).Nanoseconds()
			if r.Cache != nil {
				if err := r.Cache.Put(key, res); err != nil {
					cacheErrs++
				}
			}
			done <- jobDone{idx: i, res: res, status: StatusMiss, wallNs: wall, cacheErrs: cacheErrs, key: key}
		})
	}()

	// Reorder buffer: consume completions in any order, release them in
	// index order. Aggregation, the manifest, progress, and OnResult all
	// sit downstream of this point, so none of them ever observe a
	// scheduler-dependent ordering.
	var (
		agg      = newAggregator()
		pending  = make(map[int]jobDone, 8)
		next     = 0
		every    = progressStride(len(jobs))
		firstErr error
	)
	deliver := func(d jobDone) {
		out.Status[d.idx] = d.status
		out.CacheErrs += d.cacheErrs
		cacheErrCtr.Add(int64(d.cacheErrs))
		switch d.status {
		case StatusHit:
			out.Hits++
			hitCtr.Inc()
		case StatusMiss:
			out.Misses++
			missCtr.Inc()
			wallHist.Observe(d.wallNs)
		case StatusSkipped:
			out.Skipped++
			skipCtr.Inc()
		case StatusFailed:
			out.Failed++
			if firstErr == nil {
				firstErr = d.err
			}
		}
		if d.status == StatusHit || d.status == StatusMiss {
			out.Results[d.idx] = d.res
			out.JobWallNs[d.idx] = d.wallNs
			agg.add(d.res, d.status)
			if man != nil {
				e := manifestEntry{
					Index:  d.idx,
					Key:    d.key,
					Status: d.status,
					WallNs: d.wallNs,
				}
				if err := man.record(e); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			if r.OnResult != nil && !stopped {
				if !r.OnResult(jobs[d.idx], d.res, d.status) {
					stopOnce()
				}
			}
		}
		doneCount := d.idx + 1
		if r.Progress != nil && (doneCount%every == 0 || doneCount == len(jobs)) {
			fmt.Fprintf(r.Progress, "[sweep %s] %d/%d jobs (%d hit, %d run, %d skipped, %d failed)\n",
				name, doneCount, len(jobs), out.Hits, out.Misses, out.Skipped, out.Failed)
		}
	}
	for d := range done {
		pending[d.idx] = d
		for {
			nd, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			deliver(nd)
			next++
		}
	}
	out.Groups = agg.groups()

	if man != nil {
		if err := man.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return out, firstErr
	}
	if err := ctx.Err(); err != nil && out.Skipped > 0 {
		return out, err
	}
	return out, nil
}

// progressStride spaces progress lines so a sweep prints at most ~20.
func progressStride(n int) int {
	s := n / 20
	if s < 1 {
		s = 1
	}
	return s
}
