package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// Cache is the content-addressed result store. Each completed job is one
// JSON object file under dir/objects/<k0k1>/<key>.json, where key =
// Point.Key(codeVersion) — so a cache entry is valid exactly as long as
// both the experiment point and the code that produced it are unchanged.
// Writes are atomic (tmp + rename), so a crash mid-write never leaves a
// partial object; reads treat malformed objects as misses.
//
// The store is safe for concurrent use by the worker pool: distinct jobs
// have distinct keys, and identical keys write identical bytes.
type Cache struct {
	dir string
}

// OpenCache opens (creating if needed) a cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("sweep: cache dir must not be empty")
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("sweep: open cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// Path returns the object path for a key. Objects shard on the first hex
// byte to keep directory fan-out bounded on 10k-job sweeps.
func (c *Cache) Path(key string) string {
	shard := "xx"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(c.dir, "objects", shard, key+".json")
}

// Get loads the cached result for key. A missing or unreadable object is a
// miss, not an error — the job simply re-runs; an error is reported only
// for I/O failures other than non-existence so genuine cache corruption
// surfaces in the sweep report while still not aborting the run.
func (c *Cache) Get(key string) (Result, bool, error) {
	data, err := os.ReadFile(c.Path(key))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return Result{}, false, nil
		}
		return Result{}, false, fmt.Errorf("sweep: cache read %s: %w", key, err)
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return Result{}, false, fmt.Errorf("sweep: cache object %s corrupt: %w", key, err)
	}
	return r, true, nil
}

// lookup is the runner's read for the job at pt: a miss, an error, or a hit
// whose result echoes pt. Get accepts anything that unmarshals, so an
// object that decodes without being this job's result ({}, a truncated or a
// misplaced one) is corruption like any other: it comes back as an error
// and the job re-runs (FuzzCacheGet, TestCacheHitMustEchoPoint).
func (c *Cache) lookup(key string, pt Point) (Result, bool, error) {
	r, ok, err := c.Get(key)
	if ok && r.Point != pt {
		return Result{}, false, fmt.Errorf("sweep: cache object %s does not echo its point", key)
	}
	return r, ok, err
}

// Put stores a result under key atomically.
func (c *Cache) Put(key string, r Result) error {
	path := c.Path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	data, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	if err := writeAtomic(path, append(data, '\n')); err != nil {
		return fmt.Errorf("sweep: cache put %s: %w", key, err)
	}
	return nil
}

// writeAtomic replaces path with data through a temp file in the same
// directory and a rename, so a reader, or a crash, sees the old file or the
// new one, never a partial one.
func writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("write %v, close %v", werr, cerr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
