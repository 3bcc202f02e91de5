package exp

import (
	"bytes"
	"encoding/json"
	"testing"

	"dctcpplus/internal/fault"
	"dctcpplus/internal/telemetry"
)

// instrumentedFaultedIncast is instrumentedIncast with a full-mix fault
// plan injected: one fully instrumented faulted run, returning the registry
// snapshot's JSON serialization plus a finished manifest.
func instrumentedFaultedIncast(t *testing.T, p Protocol, flows int) ([]byte, *telemetry.Manifest) {
	t.Helper()
	reg := telemetry.NewRegistry()
	o := fastIncastOpts(p, flows)
	o.Telemetry = reg
	o.Faults = &fault.GenConfig{Seed: 11}
	res := RunIncast(o)
	if res.FaultStats == nil || res.FaultStats.EventsFired == 0 {
		t.Fatal("faulted run fired no fault events")
	}

	data, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	m, err := telemetry.NewManifest("fault-determinism-regression", o.Testbed.Seed)
	if err != nil {
		t.Fatal(err)
	}
	m.Finish(reg, 0)
	return data, m
}

// TestFaultedSeededRunsAreByteIdentical extends the determinism harness to
// fault-injected runs: the same seed plus the same fault.GenConfig must
// produce byte-identical metric snapshots — faults included — for both the
// baseline and the enhanced protocol.
func TestFaultedSeededRunsAreByteIdentical(t *testing.T) {
	for _, p := range []Protocol{ProtoDCTCP, ProtoDCTCPPlus} {
		t.Run(p.String(), func(t *testing.T) {
			snapA, manA := instrumentedFaultedIncast(t, p, 24)
			snapB, manB := instrumentedFaultedIncast(t, p, 24)

			if !bytes.Equal(snapA, snapB) {
				t.Errorf("faulted registry snapshots differ between identically seeded runs\nA: %s\nB: %s", snapA, snapB)
			}
			sameManifests(t, manA, manB)
		})
	}
}

// TestFaultCountersEqualStats: a faulted run's five fault counters hold
// exactly the fault.Stats the run returns, under the point's labels plus
// the fault-class label.
func TestFaultCountersEqualStats(t *testing.T) {
	reg := telemetry.NewRegistry()
	o := fastIncastOpts(ProtoDCTCP, 16)
	o.Telemetry = reg
	o.Faults = &fault.GenConfig{Seed: 11}
	st := RunIncast(o).FaultStats
	if st == nil || st.EventsFired == 0 || st.BlackoutTime == 0 || st.InducedDropPkts == 0 {
		t.Fatalf("the faulted run left a stat at zero: %+v", st)
	}
	snap := reg.Snapshot()
	labels := withLabel(pointLabels(o.Protocol, o.Flows), "faults", "all")
	for name, want := range map[string]int64{
		"fault_events_fired_total":       st.EventsFired,
		"fault_blackout_ns_total":        int64(st.BlackoutTime),
		"fault_stall_ns_total":           int64(st.StallTime),
		"fault_induced_drop_pkts_total":  st.InducedDropPkts,
		"fault_induced_drop_bytes_total": st.InducedDropBytes,
	} {
		is, ok := snap.Find(name, labels...)
		if !ok || is.Value != want {
			t.Errorf("%s%v = %d (found %v), want %d", name, labels, is.Value, ok, want)
		}
	}
}

// faultedSweepSnapshots runs a small per-class faulted sweep under the
// given exp.Parallelism, each cell with its own registry, and returns the
// per-cell snapshot serializations in cell order.
func faultedSweepSnapshots(t *testing.T, par int) [][]byte {
	t.Helper()
	old := Parallelism
	Parallelism = par
	defer func() { Parallelism = old }()

	classes := []fault.Class{fault.ClassBlackout, fault.ClassLoss, fault.ClassStall}
	var opts []IncastOptions
	var regs []*telemetry.Registry
	for _, p := range []Protocol{ProtoDCTCP, ProtoDCTCPPlus} {
		for _, cls := range classes {
			o := fastIncastOpts(p, 16)
			o.Faults = &fault.GenConfig{Seed: 11, Classes: []fault.Class{cls}}
			o.Telemetry = telemetry.NewRegistry()
			regs = append(regs, o.Telemetry)
			opts = append(opts, o)
		}
	}
	RunMany(opts)

	snaps := make([][]byte, len(regs))
	for i, reg := range regs {
		data, err := json.Marshal(reg.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		snaps[i] = data
	}
	return snaps
}

// TestFaultedSweepParallelismInvariant pins the other half of the contract:
// running the same faulted cells sequentially and concurrently must yield
// byte-identical per-cell snapshots — parallelism changes wall-clock time
// only, never results, faults included.
func TestFaultedSweepParallelismInvariant(t *testing.T) {
	seq := faultedSweepSnapshots(t, 1)
	par := faultedSweepSnapshots(t, 4)
	for i := range seq {
		if !bytes.Equal(seq[i], par[i]) {
			t.Errorf("cell %d: snapshot differs between Parallelism=1 and Parallelism=4\nseq: %s\npar: %s",
				i, seq[i], par[i])
		}
	}
}

// TestResilienceDCTCPPlusNoWorse is the acceptance gate behind the
// EXPERIMENTS.md resilience table: in the massive-flow regime, under every
// fault class, (a) DCTCP+ still outperforms DCTCP outright — the paper's
// advantage survives the pathology — and (b) DCTCP+'s degradation relative
// to its own clean baseline is no worse than DCTCP's, within a noise
// tolerance. The enhancement layer must not amplify pathologies it was not
// designed for.
func TestResilienceDCTCPPlusNoWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("resilience sweep")
	}
	// The catalogue entry is the operating point of the EXPERIMENTS.md
	// table: the massive-flow regime (N=150, where plain DCTCP's window
	// floor binds) at the datacenter-tuned 10ms RTOmin, {DCTCP, DCTCP+}.
	r := NewResilience(Scale{Seed: 1})
	r.Gen = fault.GenConfig{Seed: 5}
	r.Run()
	cleanDCTCP := r.Results[0].GoodputMbps.Mean
	cleanPlus := r.Results[1].GoodputMbps.Mean
	for row := 1; row <= len(r.Classes); row++ {
		dctcp, plus := r.Results[2*row], r.Results[2*row+1]
		if plus.GoodputMbps.Mean < dctcp.GoodputMbps.Mean {
			t.Errorf("%s: DCTCP+ goodput %.1f Mbps below DCTCP %.1f Mbps",
				r.RowLabel(row), plus.GoodputMbps.Mean, dctcp.GoodputMbps.Mean)
		}
		ratioDCTCP := dctcp.GoodputMbps.Mean / cleanDCTCP
		ratioPlus := plus.GoodputMbps.Mean / cleanPlus
		if ratioPlus < ratioDCTCP-0.10 {
			t.Errorf("%s: DCTCP+ degraded to %.3f of clean vs DCTCP's %.3f",
				r.RowLabel(row), ratioPlus, ratioDCTCP)
		}
	}
}
