package telemetry

import (
	"encoding/json"
	"io"
)

// This file implements the snapshot's sink: JSON lines (machine diffing,
// one instrument per line), what the commands' -telemetry flag writes.

// WriteJSONLines writes the snapshot as JSON lines: a header object
// carrying the virtual-time stamp, then one object per instrument. Every
// line is a self-contained JSON document, so the dump streams into jq,
// grep, or a line-oriented diff without parsing state.
func (s Snapshot) WriteJSONLines(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(struct {
		SimTimeNs   int64 `json:"sim_time_ns"`
		Instruments int   `json:"instruments"`
	}{s.SimTimeNs, len(s.Instruments)}); err != nil {
		return err
	}
	for _, is := range s.Instruments {
		if err := enc.Encode(is); err != nil {
			return err
		}
	}
	return nil
}
