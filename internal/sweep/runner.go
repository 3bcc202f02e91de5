package sweep

import (
	"context"
	"fmt"
	"io"
	"sync"
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
// each checked against the content-addressed cache first. A worker writes
// only its own job's slots; once the pool returns, one pass in job-index
// order folds the results into the per-group aggregators, the manifest
// journal and the first error. Folding in index order, never in completion
// order, is what makes every output of a sweep byte-identical across
// worker counts.
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
	// per sweep) as jobs finish. Not part of the deterministic output
	// surface: lines include wall-clock timings, and with several workers
	// their counts follow completion order.
	Progress io.Writer
}

// Outcome is the full accounting of one sweep run.
type Outcome struct {
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
	name := spec.normalized().Name
	header := manifestHeader{Sweep: name, SpecHash: spec.Hash(), CodeVersion: r.CodeVersion, Jobs: len(jobs)}
	if header.CodeVersion == "" {
		header.CodeVersion = CodeVersion()
	}

	out := &Outcome{
		Jobs:      len(jobs),
		Results:   make([]Result, len(jobs)),
		Status:    make([]string, len(jobs)),
		JobWallNs: make([]int64, len(jobs)),
	}
	keys := make([]string, len(jobs))
	var journal string
	if r.Cache != nil {
		journal = manifestPath(r.Cache.Dir(), name)
		prev, found, err := readManifestHeader(journal)
		switch {
		case err != nil:
			return nil, err
		case found && !r.Resume:
			return nil, fmt.Errorf("sweep: %q already has a manifest at %s; pass resume to continue it", name, journal)
		case found && prev.SpecHash != header.SpecHash:
			return nil, fmt.Errorf("sweep: cannot resume %q: spec hash %.12s does not match prior run %.12s (the grid changed)",
				name, header.SpecHash, prev.SpecHash)
		}
		// No job has a status yet: this writes the header alone.
		if err := writeManifest(journal, header, out, keys); err != nil {
			return nil, err
		}
	}

	errs := make([]error, len(jobs))
	rigs := make([]exp.Rig, pool.Width(r.Workers, len(jobs)))
	var (
		mu       sync.Mutex
		finished int
		every    = progressStride(len(jobs))
	)
	pool.ForEach(r.Workers, len(jobs), func(w, i int) {
		var cacheErrs int
		keys[i], cacheErrs, errs[i] = r.runJob(ctx, jobs[i], &rigs[w], header.CodeVersion, out)
		// Progress is written under mu too, so its lines keep their order.
		mu.Lock()
		defer mu.Unlock()
		out.CacheErrs += cacheErrs
		switch out.Status[i] {
		case StatusHit:
			out.Hits++
		case StatusMiss:
			out.Misses++
		case StatusSkipped:
			out.Skipped++
		case StatusFailed:
			out.Failed++
		}
		finished++
		if r.Progress != nil && (finished%every == 0 || finished == len(jobs)) {
			fmt.Fprintf(r.Progress, "[sweep %s] %d/%d jobs (%d hit, %d run, %d skipped, %d failed)\n",
				name, finished, len(jobs), out.Hits, out.Misses, out.Skipped, out.Failed)
		}
	})

	// The sweep's own instruments fill a registry of this call's and reach
	// r.Telemetry in one Merge, the way each job's run does. Instruments
	// are nil-safe: with no registry these are no-op handles.
	var reg *telemetry.Registry
	if r.Telemetry != nil {
		reg = telemetry.NewRegistry()
	}
	label := telemetry.L("sweep", name)
	jobsTotal := func(status string, n int) {
		reg.Counter("sweep_jobs_total", label, telemetry.L("status", status)).Add(int64(n))
	}
	jobsTotal(StatusHit, out.Hits)
	jobsTotal(StatusMiss, out.Misses)
	jobsTotal(StatusSkipped, out.Skipped)
	jobsTotal(StatusFailed, out.Failed)
	reg.Counter("sweep_cache_errors_total", label).Add(int64(out.CacheErrs))
	wallHist := reg.Histogram("sweep_job_wall_ns", label)

	agg := newAggregator()
	var firstErr error
	for i, status := range out.Status {
		switch status {
		case StatusMiss:
			wallHist.Observe(out.JobWallNs[i])
			fallthrough
		case StatusHit:
			agg.add(out.Results[i], status)
		case StatusFailed:
			if firstErr == nil {
				firstErr = errs[i]
			}
		}
	}
	out.Groups = agg.groups()
	r.Telemetry.Merge(reg)

	if r.Cache != nil {
		if err := writeManifest(journal, header, out, keys); err != nil && firstErr == nil {
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

// runJob settles job j on rig, the calling worker's: skipped once ctx is
// done, a hit when the cache holds it, otherwise run (a miss, stored in
// the cache) or failed, with err saying why. It writes only j's slots of
// out. cacheErrs counts cache failures downgraded to recomputation or
// forgone memoization.
func (r *Runner) runJob(ctx context.Context, j Job, rig *exp.Rig, codeVersion string, out *Outcome) (key string, cacheErrs int, err error) {
	i := j.Index
	if ctx.Err() != nil {
		out.Status[i] = StatusSkipped
		return "", 0, nil
	}
	key = j.Point.Key(codeVersion)
	if r.Cache != nil {
		res, ok, err := r.Cache.lookup(key, j.Point)
		if err != nil {
			// Unreadable, corrupt or not this job's: count it and re-run.
			cacheErrs++
		} else if ok {
			out.Results[i], out.Status[i] = res, StatusHit
			return key, 0, nil
		}
	}
	start := time.Now()
	res, err := j.run(rig, r.Telemetry)
	if err != nil {
		out.Status[i] = StatusFailed
		return key, cacheErrs, err
	}
	out.JobWallNs[i] = time.Since(start).Nanoseconds()
	if r.Cache != nil {
		if err := r.Cache.Put(key, res); err != nil {
			cacheErrs++
		}
	}
	out.Results[i], out.Status[i] = res, StatusMiss
	return key, cacheErrs, nil
}

// progressStride spaces progress lines so a sweep prints at most ~20.
func progressStride(n int) int {
	s := n / 20
	if s < 1 {
		s = 1
	}
	return s
}
