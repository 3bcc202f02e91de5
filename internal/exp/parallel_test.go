package exp

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dctcpplus/internal/core"
	"dctcpplus/internal/fault"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/telemetry"
)

// pointsAt returns the curve of fast points for p at the given flow counts.
func pointsAt(p Protocol, counts ...int) []IncastOptions {
	var optList []IncastOptions
	for _, n := range counts {
		optList = append(optList, fastIncastOpts(p, n))
	}
	return optList
}

func TestParallelSweepMatchesSequential(t *testing.T) {
	optList := pointsAt(ProtoDCTCPPlus, 4, 8, 12)
	var seq []IncastResult
	for _, o := range optList {
		seq = append(seq, RunIncast(o))
	}
	par := RunMany(optList)
	if len(seq) != len(par) {
		t.Fatal("length mismatch")
	}
	for i := range seq {
		if seq[i].GoodputMbps != par[i].GoodputMbps ||
			seq[i].FCTms != par[i].FCTms ||
			seq[i].Timeouts != par[i].Timeouts {
			t.Errorf("point %d differs: seq %+v vs par %+v", i, seq[i].GoodputMbps, par[i].GoodputMbps)
		}
	}
}

// TestParallelismOneMatchesDefault pins the consolidation contract: RunMany
// rides the shared pool (internal/sweep/pool), and results must be
// independent of its width.
func TestParallelismOneMatchesDefault(t *testing.T) {
	optList := pointsAt(ProtoDCTCP, 4, 8)
	wide := RunMany(optList)
	old := Parallelism
	Parallelism = 1
	defer func() { Parallelism = old }()
	narrow := RunMany(optList)
	for i := range wide {
		if wide[i].GoodputMbps != narrow[i].GoodputMbps || wide[i].Timeouts != narrow[i].Timeouts {
			t.Errorf("point %d differs across pool widths", i)
		}
	}
}

func TestRunMany(t *testing.T) {
	optList := []IncastOptions{
		fastIncastOpts(ProtoDCTCP, 4),
		fastIncastOpts(ProtoDCTCPPlus, 6),
	}
	out := RunMany(optList)
	if len(out) != 2 {
		t.Fatal("length")
	}
	if out[0].Protocol != ProtoDCTCP || out[0].Flows != 4 {
		t.Error("point 0 identity wrong")
	}
	if out[1].Protocol != ProtoDCTCPPlus || out[1].Flows != 6 {
		t.Error("point 1 identity wrong")
	}
}

func TestParallelBackgroundSweep(t *testing.T) {
	rs := RunMany([]IncastOptions{fastBackgroundOpts(ProtoDCTCPPlus, 4), fastBackgroundOpts(ProtoDCTCPPlus, 6)})
	if len(rs) != 2 || rs[0].Flows != 4 || rs[1].Flows != 6 {
		t.Fatal("shape wrong")
	}
	for _, r := range rs {
		if len(r.PerFlowMeanMbps) != 2 {
			t.Errorf("N=%d: long flows = %d", r.Flows, len(r.PerFlowMeanMbps))
		}
	}
}

// TestRunManyValidatesBeforeFanOut: a bad point must fail the whole batch
// up front — on the calling goroutine (a panic inside a pool worker would
// kill the test binary, not reach this recover), naming its index, before
// any point has run — and the same way at every pool width. Each row is an
// input some layer below would otherwise panic on mid-run: the workload on
// a flow id it cannot register, core on enhancement parameters outside
// their contract.
func TestRunManyValidatesBeforeFanOut(t *testing.T) {
	defer func(old int) { Parallelism = old }(Parallelism)
	ids := func(vs ...packet.FlowID) func(o *IncastOptions) {
		return func(o *IncastOptions) { o.FlowIDs = vs }
	}
	enh := func(p Protocol, divisor float64) func(o *IncastOptions) {
		return func(o *IncastOptions) {
			cfg := core.DefaultConfig()
			cfg.DivisorFactor = divisor
			o.Protocol, o.Enhancement = p, &cfg
		}
	}
	cases := []struct {
		name, want string
		spoil      func(o *IncastOptions)
	}{
		{"warmup swallows rounds", "Rounds must exceed WarmupRounds", func(o *IncastOptions) { o.Rounds = o.WarmupRounds }},
		{"zero rtomin", "RTOMin must be positive", func(o *IncastOptions) { o.RTOMin = 0 }},
		{"unknown protocol", "unknown protocol", func(o *IncastOptions) { o.Protocol = Protocol(len(Protocols)) }},
		{"no leaves", "at least one leaf", func(o *IncastOptions) { o.Testbed.Leaves = 0 }},
		{"no hosts per leaf", "at least one leaf", func(o *IncastOptions) { o.Testbed.HostsPerLeaf = 0 }},
		{"background without chunks", "ChunkBytes must be positive", func(o *IncastOptions) { o.BackgroundFlows = 2 }},
		{"zero max sim time", "MaxSimTime 0s must be positive", func(o *IncastOptions) { o.MaxSimTime = 0 }},
		{"flow ids too few", "FlowIDs has 3 ids for 4 flows", ids(7, 8, 9)},
		{"flow id repeated", "FlowIDs repeats flow id 7", ids(7, 7, 8, 9)},
		{"flow id zero", "FlowIDs holds flow id 0", ids(7, 0, 8, 9)},
		{"flow id in the long flows' range", "flow id 900000 is in the long flows' range", func(o *IncastOptions) {
			o.BackgroundFlows, o.ChunkBytes = 1, 1<<20
			o.FlowIDs = []packet.FlowID{7, 8, 900_000, 9}
		}},
		{"enhancement on dctcp", "Enhancement applies to dctcp+ only, not dctcp", enh(ProtoDCTCP, 2)},
		{"enhancement divisor 1", "Enhancement: DivisorFactor must exceed 1", enh(ProtoDCTCPPlus, 1)},
	}
	for _, c := range cases {
		for _, width := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s at width %d", c.name, width), func(t *testing.T) {
				Parallelism = width
				reg := telemetry.NewRegistry()
				optList := pointsAt(ProtoDCTCP, 4, 4, 4, 4)
				for i := range optList {
					optList[i].Telemetry = reg
				}
				c.spoil(&optList[2])
				msg := func() (msg string) {
					defer func() { msg = fmt.Sprint(recover()) }()
					RunMany(optList)
					return
				}()
				if !strings.Contains(msg, "point 2") || !strings.Contains(msg, c.want) {
					t.Errorf("panic = %q, want one naming point 2 and %q", msg, c.want)
				}
				if n := len(reg.Snapshot().Instruments); n != 0 {
					t.Errorf("%d instruments registered; a point ran before the batch was rejected", n)
				}
			})
		}
	}
}

// TestSharedRegistryAcrossWorkers: every observer — telemetry, the oracle,
// cwnd probes, the queue sampler, background flows and a fault plan —
// attached to points RunMany runs on two workers, all reporting into one
// registry under overlapping label sets, so runs merge into the same
// instruments concurrently. Each run owns its instruments and merges them
// once, so the shared snapshot must equal the one a single worker leaves.
// `go test -race` is the other half of the check.
func TestSharedRegistryAcrossWorkers(t *testing.T) {
	var points []IncastOptions
	for _, p := range []Protocol{ProtoDCTCPPlus, ProtoDCTCP} {
		for seed := uint64(1); seed <= 2; seed++ {
			o := fastBackgroundOpts(p, 8)
			o.Rounds, o.WarmupRounds = 4, 1
			o.Testbed.Seed = seed
			o.Oracle = true
			o.CollectCwnd = true
			o.QueueSampleEvery = 100 * sim.Microsecond
			points = append(points, o)
		}
	}
	faulted := points[0]
	faulted.Faults = &fault.GenConfig{Seed: 7, Classes: []fault.Class{fault.ClassLoss}}
	points = append(points, faulted)

	snapshot := func(workers int) telemetry.Snapshot {
		old := Parallelism
		Parallelism = workers
		defer func() { Parallelism = old }()
		reg := telemetry.NewRegistry()
		optList := append([]IncastOptions(nil), points...)
		for i := range optList {
			optList[i].Telemetry = reg
		}
		for i, r := range RunMany(optList) {
			if r.OracleTotal != 0 {
				t.Fatalf("workers=%d point %d: %d oracle violations", workers, i, r.OracleTotal)
			}
		}
		return reg.Snapshot()
	}
	one, two := snapshot(1), snapshot(2)
	if len(one.Instruments) == 0 || one.Total("tcp_cwnd_mss") == 0 {
		t.Fatalf("the runs reported nothing: %d instruments", len(one.Instruments))
	}
	if !reflect.DeepEqual(one, two) {
		var a, b bytes.Buffer
		one.WriteJSONLines(&a)
		two.WriteJSONLines(&b)
		t.Errorf("two workers left a different registry than one:\none worker:\n%s\ntwo workers:\n%s", a.Bytes(), b.Bytes())
	}
}
