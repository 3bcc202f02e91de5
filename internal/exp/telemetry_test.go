package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dctcpplus/internal/sim"
	"dctcpplus/internal/stats"
	"dctcpplus/internal/telemetry"
)

// TestRunIncastTelemetryDCTCPPlus drives a Figure-7-style DCTCP+ point with
// a registry attached and checks that every layer reported: CE marks at the
// bottleneck, the Fig. 4 state machine's occupancy and slow_time, DCTCP's
// alpha updates, and the workload's round accounting.
func TestRunIncastTelemetryDCTCPPlus(t *testing.T) {
	reg := telemetry.NewRegistry()
	o := fastIncastOpts(ProtoDCTCPPlus, 48)
	o.Telemetry = reg
	r := RunIncast(o)

	snap := reg.Snapshot()
	if snap.SimTimeNs <= 0 {
		t.Fatal("snapshot not stamped with virtual time")
	}

	if n := snap.Total("netsim_port_ce_marked_pkts_total"); n == 0 {
		t.Error("no CE marks recorded despite DCTCP+ under incast pressure")
	}
	bneck, ok := snap.Find("netsim_port_ce_marked_pkts_total",
		telemetry.L("proto", "dctcp+"), telemetry.L("flows", "48"),
		telemetry.L("port", "bottleneck"))
	if !ok || bneck.Value == 0 {
		t.Errorf("bottleneck CE marks: ok=%v value=%d", ok, bneck.Value)
	}
	if n := snap.Total("netsim_port_enqueued_pkts_total"); n == 0 {
		t.Error("no enqueues recorded")
	}
	if qd, ok := snap.Find("netsim_port_queue_depth_bytes",
		telemetry.L("proto", "dctcp+"), telemetry.L("flows", "48"),
		telemetry.L("port", "bottleneck")); !ok || qd.Count == 0 || qd.Max == 0 {
		t.Errorf("bottleneck queue-depth histogram: ok=%v %+v", ok, qd)
	}

	// 48 flows at the floor engage the mechanism: slow_time adjustments and
	// non-Normal state occupancy must appear.
	if n := snap.Total("core_enter_timeinc_total"); n == 0 {
		t.Error("state machine never entered DCTCP_Time_Inc")
	}
	if st, ok := snap.Find("core_slow_time_ns",
		telemetry.L("proto", "dctcp+"), telemetry.L("flows", "48")); !ok || st.Count == 0 {
		t.Errorf("slow_time histogram: ok=%v %+v", ok, st)
	}
	var occ int64
	for _, state := range []string{"DCTCP_NORMAL", "DCTCP_Time_Inc", "DCTCP_Time_Des"} {
		is, ok := snap.Find("core_state_occupancy_ns",
			telemetry.L("proto", "dctcp+"), telemetry.L("flows", "48"),
			telemetry.L("state", state))
		if !ok {
			t.Errorf("state occupancy for %s missing", state)
			continue
		}
		occ += is.Value
	}
	if occ == 0 {
		t.Error("zero total state occupancy")
	}
	// Occupancy aggregates all 48 flows; with FlushTelemetry closing the
	// open intervals it cannot exceed flows x run length.
	if max := int64(48) * snap.SimTimeNs; occ > max {
		t.Errorf("occupancy %d exceeds flows x simtime %d", occ, max)
	}

	if n := snap.Total("dctcp_alpha_updates_total"); n == 0 {
		t.Error("no alpha updates recorded")
	}

	if rounds, ok := snap.Find("workload_rounds_total",
		telemetry.L("proto", "dctcp+"), telemetry.L("flows", "48")); !ok || rounds.Value != int64(o.Rounds) {
		t.Errorf("workload rounds = %d, want %d", rounds.Value, o.Rounds)
	}
	if fct, ok := snap.Find("workload_round_fct_ns",
		telemetry.L("proto", "dctcp+"), telemetry.L("flows", "48")); !ok || fct.Count != int64(o.Rounds) || fct.Min <= 0 {
		t.Errorf("FCT histogram: ok=%v %+v", ok, fct)
	}
	if n := snap.Total("tcp_cwnd_mss"); n == 0 {
		t.Error("no cwnd samples recorded")
	}
	_ = r
}

// TestRunIncastTelemetryRTOTaxonomy checks the transport counters against
// the run's own result struct on a timeout-heavy TCP point.
func TestRunIncastTelemetryRTOTaxonomy(t *testing.T) {
	reg := telemetry.NewRegistry()
	o := fastIncastOpts(ProtoTCP, 32)
	o.RTOMin = 10 * sim.Millisecond
	o.Telemetry = reg
	r := RunIncast(o)
	if r.Timeouts == 0 {
		t.Fatal("32-flow TCP incast should time out")
	}

	snap := reg.Snapshot()
	lbls := []telemetry.Label{telemetry.L("proto", "tcp"), telemetry.L("flows", "32")}
	total, _ := snap.Find("tcp_rto_total", lbls...)
	floss, _ := snap.Find("tcp_rto_floss_total", lbls...)
	lack, _ := snap.Find("tcp_rto_lack_total", lbls...)
	if total.Value != r.Timeouts {
		t.Errorf("tcp_rto_total = %d, result says %d", total.Value, r.Timeouts)
	}
	if floss.Value+lack.Value != total.Value {
		t.Errorf("taxonomy %d+%d != %d", floss.Value, lack.Value, total.Value)
	}
	if floss.Value != r.FLossTO || lack.Value != r.LAckTO {
		t.Errorf("taxonomy split (%d, %d) != result (%d, %d)",
			floss.Value, lack.Value, r.FLossTO, r.LAckTO)
	}
	if rtx, ok := snap.Find("tcp_retransmit_pkts_total", lbls...); !ok || rtx.Value == 0 {
		t.Error("no retransmissions recorded despite timeouts")
	}
}

// TestTelemetryDoesNotPerturbRun pins the zero-observer-effect property:
// attaching a registry must not change a single simulation outcome, because
// instruments only read state the run already computes.
func TestTelemetryDoesNotPerturbRun(t *testing.T) {
	plain := RunIncast(fastIncastOpts(ProtoDCTCPPlus, 24))
	o := fastIncastOpts(ProtoDCTCPPlus, 24)
	o.Telemetry = telemetry.NewRegistry()
	instrumented := RunIncast(o)
	if plain.GoodputMbps != instrumented.GoodputMbps ||
		plain.FCTms != instrumented.FCTms ||
		plain.Timeouts != instrumented.Timeouts {
		t.Error("telemetry changed simulation results")
	}
}

// TestBackgroundIncastTelemetryRoles checks that the §VI-C run separates
// long-flow transport counters from the incast flows' via the role label.
func TestBackgroundIncastTelemetryRoles(t *testing.T) {
	reg := telemetry.NewRegistry()
	o := fastBackgroundOpts(ProtoDCTCPPlus, 8)
	o.Telemetry = reg
	RunIncast(o)

	snap := reg.Snapshot()
	if _, ok := snap.Find("tcp_cwnd_mss",
		telemetry.L("proto", "dctcp+"), telemetry.L("flows", "8")); !ok {
		t.Error("incast flows' cwnd histogram missing")
	}
	bg, ok := snap.Find("tcp_cwnd_mss",
		telemetry.L("proto", "dctcp+"), telemetry.L("flows", "8"),
		telemetry.L("role", "background"))
	if !ok || bg.Count == 0 {
		t.Errorf("background flows' cwnd histogram: ok=%v %+v", ok, bg)
	}
}

// TestBackgroundFairnessJainIndex is the regression guard for DESIGN.md's
// residual deviation (ii): under §VI-C one long flow can escape the
// regulation and starve the other. The DecayInterval=1ms cadence keeps the
// long flows near-equal (measured Jain ~0.9999); this test fails if that
// mitigation silently regresses.
func TestBackgroundFairnessJainIndex(t *testing.T) {
	o := DefaultIncastOptions(ProtoDCTCPPlus, 20)
	o.Rounds = 30
	o.WarmupRounds = 5
	o.BackgroundFlows = 2
	o.ChunkBytes = 4 << 20
	r := RunIncast(o)
	if len(r.PerFlowMeanMbps) != o.BackgroundFlows {
		t.Fatalf("long flows = %d, want %d", len(r.PerFlowMeanMbps), o.BackgroundFlows)
	}
	for i, m := range r.PerFlowMeanMbps {
		if m <= 0 {
			t.Fatalf("long flow %d starved completely: %.1f Mbps", i, m)
		}
	}
	if jain := stats.JainIndex(r.PerFlowMeanMbps); jain < 0.95 {
		t.Errorf("Jain index = %.4f, want >= 0.95 (DecayInterval mitigation regressed; per-flow %v)",
			jain, r.PerFlowMeanMbps)
	}
}

// TestScaleAppliesTelemetry pins that figure specs propagate the registry,
// the fixed-length Fig. 14 trace included.
func TestScaleAppliesTelemetry(t *testing.T) {
	for i, build := range []func(Scale) *Figure{NewFigure7, NewFigure14} {
		reg := telemetry.NewRegistry()
		f := build(Scale{Rounds: 3, Warmup: 1, Seed: 1, Telemetry: reg})
		f.Points[0].BytesPerFlow = 64 << 10
		f.Points = Grid(f.Points[0], []Protocol{ProtoDCTCP}, []int{4})
		f.Run()
		if len(reg.Snapshot().Instruments) == 0 {
			t.Errorf("figure %d: Run dropped the registry", i)
		}
	}
}

// TestTelemetryDumpGolden pins the JSON-lines dump of two small points, each
// on a fresh registry: DCTCP+ with one background long flow (port roles and
// the role=background labels) and DCTCP (no enhancement instruments). Every
// instrument's name, labels and value is part of the dump, so a counter that
// moves to another owner must land on the same name and labels with the
// same total.
func TestTelemetryDumpGolden(t *testing.T) {
	plus := DefaultIncastOptions(ProtoDCTCPPlus, 8)
	plus.BackgroundFlows = 1
	plus.ChunkBytes = 1 << 20
	var buf bytes.Buffer
	for _, o := range []IncastOptions{plus, DefaultIncastOptions(ProtoDCTCP, 8)} {
		o.Rounds, o.WarmupRounds = 4, 1
		o.Telemetry = telemetry.NewRegistry()
		RunIncast(o)
		if err := o.Telemetry.Snapshot().WriteJSONLines(&buf); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "telemetry.golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("telemetry dump moved:\n got:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
