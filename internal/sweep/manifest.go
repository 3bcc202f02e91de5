package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// The manifest is the sweep's journal: one JSONL file per sweep name under
// the cache root. Line 1 is a header binding the journal to a spec hash
// and code version; each later line records one completed job (hit or
// miss), in job order. A run writes the file twice, each time whole and
// atomically: the header alone before its first job, so a killed run
// leaves a journal that a rerun must -resume; then the header and every
// entry once the pool returns and the store stages have drained. A later
// run resuming the same sweep reads the journal only to check identity
// (spec-hash mismatch under -resume is an error: the grid changed, so
// "resume" would silently run a different experiment); the actual resume
// mechanism is the content-addressed cache itself, which is why resume
// survives a kill -9 that leaves only the header. Such a kill loses at most the objects still in a worker's store
// stage (the runner writes cache objects off the worker, see Runner), and
// their jobs re-run on resume like jobs that never started.

// manifestHeader is the first line of a sweep journal.
type manifestHeader struct {
	Sweep       string `json:"sweep"`
	SpecHash    string `json:"spec_hash"`
	CodeVersion string `json:"code_version"`
	Jobs        int    `json:"jobs"`
}

// manifestEntry records one completed job.
type manifestEntry struct {
	Index  int    `json:"i"`
	Key    string `json:"key"`
	Status string `json:"status"` // "hit" or "miss"
	// WallNs is host wall-clock spent executing the job (0 for cache
	// hits); it times the run, it never feeds back into simulation state.
	WallNs int64 `json:"wall_ns"`
}

// manifestPath returns the journal location for a sweep name inside a
// cache root.
func manifestPath(cacheDir, sweepName string) string {
	return filepath.Join(cacheDir, sweepName+".manifest.jsonl")
}

// writeManifest replaces the journal at path with the header followed by
// one entry per completed (hit or miss) job of out, in job order.
func writeManifest(path string, h manifestHeader, out *Outcome, keys []string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	err := enc.Encode(h)
	for i, status := range out.Status {
		if err == nil && (status == StatusHit || status == StatusMiss) {
			err = enc.Encode(manifestEntry{Index: i, Key: keys[i], Status: status, WallNs: out.JobWallNs[i]})
		}
	}
	if err == nil {
		err = writeAtomic(path, buf.Bytes())
	}
	if err != nil {
		return fmt.Errorf("sweep: manifest: %w", err)
	}
	return nil
}

// readManifestHeader loads the header of a prior run's journal. Returns
// ok=false when no journal exists or it is empty; errors only on
// unreadable or malformed journals.
func readManifestHeader(path string) (manifestHeader, bool, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) || err == nil && len(data) == 0 {
		return manifestHeader{}, false, nil
	}
	if err != nil {
		return manifestHeader{}, false, fmt.Errorf("sweep: manifest: %w", err)
	}
	line, _, _ := bytes.Cut(data, []byte{'\n'})
	var h manifestHeader
	if err := json.Unmarshal(line, &h); err != nil {
		return manifestHeader{}, false, fmt.Errorf("sweep: manifest header corrupt: %w", err)
	}
	return h, true, nil
}
