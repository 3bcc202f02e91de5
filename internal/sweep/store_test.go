package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dctcpplus/internal/telemetry"
)

// TestCancelStoresEveryCompletedJob: a sweep canceled mid-grid returns only
// once every job it computed is in the cache and in the journal, at one
// worker (the pool runs inline) and at two, and leaves no store or pool
// goroutine behind.
func TestCancelStoresEveryCompletedJob(t *testing.T) {
	spec := fastSpec("store-cancel")
	spec.Seeds = []uint64{1, 2, 3, 4}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		dir := t.TempDir()
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		r := Runner{Workers: workers, Cache: c, CodeVersion: "test-version", Progress: &cancelAfter{lines: 3, cancel: cancel}}
		out, err := r.Run(ctx, spec)
		cancel()
		if !errors.Is(err, context.Canceled) || out.Skipped == 0 || out.Misses < 3 {
			t.Fatalf("workers=%d: err %v with %d run, %d skipped; want context.Canceled after at least 3 run and some skipped",
				workers, err, out.Misses, out.Skipped)
		}
		if leaked := sweepGoroutines(); len(leaked) != 0 {
			t.Fatalf("workers=%d: goroutines outlive Run:\n%s", workers, strings.Join(leaked, "\n\n"))
		}

		journal := map[int]manifestEntry{}
		data, err := os.ReadFile(manifestPath(dir, spec.Name))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n")[1:] {
			var e manifestEntry
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				t.Fatal(err)
			}
			journal[e.Index] = e
		}
		if len(journal) != out.Misses {
			t.Errorf("workers=%d: journal lists %d jobs, want the %d run", workers, len(journal), out.Misses)
		}
		for i, status := range out.Status {
			if status != StatusMiss {
				continue
			}
			key := jobs[i].Point.Key("test-version")
			if _, ok, err := c.lookup(key, jobs[i].Point); !ok || err != nil {
				t.Errorf("workers=%d: job %d ran but its object is not cached: ok=%v err=%v", workers, i, ok, err)
			}
			if e := journal[i]; e.Status != StatusMiss || e.Key != key {
				t.Errorf("workers=%d: job %d journaled as %+v, want a miss under %s", workers, i, e, key)
			}
		}
	}
}

// TestBlockedShardCountsOnePutError: a regular file where one job's shard
// directory belongs makes that job's Put fail. The job still runs and keeps
// its result as a miss; the failed Put is counted once, beside the one read
// error the same file causes when the job's lookup walks through it, in
// both Outcome.CacheErrs and sweep_cache_errors_total. Every other job is
// stored.
func TestBlockedShardCountsOnePutError(t *testing.T) {
	spec := fastSpec("store-blocked")
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := runOutcome(t, spec, 1, "", false)
	for _, workers := range []int{1, 2} {
		dir := t.TempDir()
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		blocked := 0
		shard := filepath.Dir(c.Path(jobs[blocked].Point.Key("test-version")))
		for _, j := range jobs[1:] {
			if filepath.Dir(c.Path(j.Point.Key("test-version"))) == shard {
				t.Fatalf("job %d shares job %d's shard; the grid needs another blocked job", j.Index, blocked)
			}
		}
		if err := os.WriteFile(shard, nil, 0o644); err != nil {
			t.Fatal(err)
		}

		reg := telemetry.NewRegistry()
		r := Runner{Workers: workers, Cache: c, CodeVersion: "test-version", Telemetry: reg}
		out, err := r.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if leaked := sweepGoroutines(); len(leaked) != 0 {
			t.Fatalf("workers=%d: goroutines outlive Run:\n%s", workers, strings.Join(leaked, "\n\n"))
		}
		const want = 2 // the blocked job's read and its Put
		errsTotal := reg.Counter("sweep_cache_errors_total", telemetry.L("sweep", spec.Name)).Value()
		if out.CacheErrs != want || errsTotal != want {
			t.Errorf("workers=%d: CacheErrs %d, sweep_cache_errors_total %d; want %d each", workers, out.CacheErrs, errsTotal, want)
		}
		if out.Status[blocked] != StatusMiss || !reflect.DeepEqual(out.Results[blocked], clean.Results[blocked]) || out.Misses != out.Jobs {
			t.Errorf("workers=%d: blocked job %s with %+v (%d of %d run); want a miss with the cacheless result",
				workers, out.Status[blocked], out.Results[blocked], out.Misses, out.Jobs)
		}
		for _, j := range jobs {
			_, ok, _ := c.lookup(j.Point.Key("test-version"), j.Point)
			if ok != (j.Index != blocked) {
				t.Errorf("workers=%d: job %d cached = %v", workers, j.Index, ok)
			}
		}
	}
}

// TestPutMakesMissingShard: Put makes a shard directory when its write
// finds it missing, whether the shard was never made, was removed under
// the open Cache, or is being made by a concurrent Put of another key in
// the same shard; each round races two first Puts into one shard.
func TestPutMakesMissingShard(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var pair [2]Result
	seen := map[string]Result{}
	for seed := uint64(1); ; seed++ {
		r := Result{Point: Point{Proto: "dctcp", Flows: 8, Seed: seed, Rounds: 5, WarmupRounds: 1}}
		shard := filepath.Dir(c.Path(r.Point.Key("test-version")))
		if prev, ok := seen[shard]; ok {
			pair = [2]Result{prev, r}
			break
		}
		seen[shard] = r
	}
	shard := filepath.Dir(c.Path(pair[0].Point.Key("test-version")))
	for round := range 10 {
		if err := os.RemoveAll(shard); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, r := range pair {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := c.Put(r.Point.Key("test-version"), r); err != nil {
					t.Errorf("round %d: %v", round, err)
				}
			}()
		}
		wg.Wait()
		for _, r := range pair {
			if got, ok, err := c.lookup(r.Point.Key("test-version"), r.Point); !ok || err != nil || !reflect.DeepEqual(got, r) {
				t.Errorf("round %d: seed %d reads back %+v, %v, %v", round, r.Point.Seed, got, ok, err)
			}
		}
	}
}

// sweepGoroutines returns the stacks of goroutines other than the test's
// own that still run this module's code. A goroutine that has just
// signalled its exit can stay in the dump for a moment, so it polls for up
// to a second before reporting one.
func sweepGoroutines() []string {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Second); ; {
		var left []string
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "dctcpplus/") && !strings.Contains(g, "testing.tRunner") {
				left = append(left, g)
			}
		}
		if len(left) == 0 || time.Now().After(deadline) {
			return left
		}
		time.Sleep(10 * time.Millisecond)
	}
}
