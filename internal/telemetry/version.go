package telemetry

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"sync"
)

// CodeVersion returns the identity of the running code: "sha256:" and the
// hex SHA-256 of the running executable, read once per process. The
// executable is the code that ran — its source, Go version and GOARCH at
// once — so two builds that differ in anything have different identities,
// however their trees stand in git. Run manifests and sweep journals record
// it as code_version, and sweep cache keys are scoped by it. When the
// executable cannot be read there is no identity to give, and the error
// says why.
func CodeVersion() (string, error) { return executableHash() }

var executableHash = sync.OnceValues(func() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", fmt.Errorf("code version: %w", err)
	}
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("code version: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("code version: hashing %s: %w", path, err)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
})
