package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// Manifest is the machine-readable record of one experiment run: what was
// run (name, configuration, seed, code version), what it cost (wall time,
// simulated virtual time), and what it measured (the full instrument
// dump). Manifests are written next to experiment output so any result is
// reproducible from its own metadata.
type Manifest struct {
	// Name identifies the run (e.g. "report", "incast").
	Name string `json:"name"`
	// CreatedAt is the wall-clock creation time, RFC 3339.
	CreatedAt string `json:"created_at"`
	// CodeVersion is the identity of the code that ran (see CodeVersion).
	CodeVersion string `json:"code_version"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// Seed is the experiment seed.
	Seed uint64 `json:"seed"`
	// Config holds the run's flat configuration (flag values, scale
	// settings) as deterministic string pairs.
	Config map[string]string `json:"config,omitempty"`

	// WallNs is the real time the run took, in nanoseconds.
	WallNs int64 `json:"wall_ns"`
	// SimTimeNs is the virtual time covered, from the registry stamp.
	SimTimeNs int64 `json:"sim_time_ns"`

	// Metrics is the full instrument dump.
	Metrics []InstrumentSnapshot `json:"metrics,omitempty"`
}

// NewManifest starts a manifest for a named run, capturing the wall clock,
// the code version and the toolchain version. It fails when the code
// version cannot be read: a manifest that cannot name the code it
// describes reproduces nothing.
func NewManifest(name string, seed uint64) (*Manifest, error) {
	version, err := CodeVersion()
	if err != nil {
		return nil, err
	}
	return &Manifest{
		Name:        name,
		CreatedAt:   time.Now().UTC().Format(time.RFC3339),
		CodeVersion: version,
		GoVersion:   runtime.Version(),
		Seed:        seed,
		Config:      make(map[string]string),
	}, nil
}

// SetConfig records one configuration pair.
func (m *Manifest) SetConfig(key string, value any) {
	if m.Config == nil {
		m.Config = make(map[string]string)
	}
	m.Config[key] = fmt.Sprint(value)
}

// Finish stamps the manifest with the run's wall time and the registry's
// snapshot (instrument dump plus virtual-time high-water mark). A nil
// registry leaves the metrics empty.
func (m *Manifest) Finish(reg *Registry, wall time.Duration) {
	m.WallNs = int64(wall)
	snap := reg.Snapshot()
	m.SimTimeNs = snap.SimTimeNs
	m.Metrics = snap.Instruments
}

// EncodeJSON writes the manifest as indented JSON. Map keys are emitted in
// sorted order by encoding/json, so equivalent manifests are byte-stable.
func (m *Manifest) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WriteManifestFile writes the manifest to path (atomically via a sibling
// temp file, so a crash never leaves a truncated baseline).
func WriteManifestFile(path string, m *Manifest) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := m.EncodeJSON(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
