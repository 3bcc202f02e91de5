//line cmd/stamp.go:2:1

// The //line directive above makes this file's positions read
// <fixture dir>/cmd/stamp.go — a fixture is one flat directory, and this is
// how it gets a file the wall-clock allowlist covers (wallClockAllowed
// matches "/cmd/").
package callpurity

import "time"

// banner reads the wall clock for run metadata outside any hot root: the
// file allowance applies, nothing is reported.
func banner() int64 { return time.Now().Unix() }

// stamp does the same one static hop below Tick: under a //hot:path root
// the allowance is void.
func stamp() int64 { return time.Now().UnixNano() }
