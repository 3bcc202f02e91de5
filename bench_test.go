// The one root benchmark. Figures and ablations are catalogue entries
// (dcp.Battery) that cmd/report prints, and the host-time trajectory is
// cmd/perf's; neither is re-timed here.
//
// Run with:
//
//	go test -bench=. -benchmem
package dctcpplus_test

import (
	"testing"

	dcp "dctcpplus"
)

// BenchmarkTelemetryOverhead measures the cost of the metrics layer on the
// simulator's hottest path: a full DCTCP+ incast point with (a) no registry
// attached — every instrument pointer nil, each hook a no-op method on a nil
// receiver — and (b) a live registry collecting all layers. The "off" case
// must stay within ~2% of an untouched build (the hooks compile to a nil
// check); compare off vs on to see the enabled cost. Run with -benchmem: the
// per-op allocation delta of "on" over "off" is the registry's lookup cost
// at attach time — the per-packet Add/Observe path allocates nothing (see
// TestHotPathAllocFree in internal/telemetry).
func BenchmarkTelemetryOverhead(b *testing.B) {
	run := func(b *testing.B, reg *dcp.Registry) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o := dcp.DefaultIncastOptions(dcp.ProtoDCTCPPlus, 40)
			o.Rounds, o.WarmupRounds = 24, 6
			o.Telemetry = reg
			r := dcp.RunIncast(o)
			b.ReportMetric(r.GoodputMbps.Mean, "goodput_mbps")
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) { run(b, dcp.NewRegistry()) })
}
