package dctcpplus_test

import (
	"reflect"
	"strings"
	"testing"

	dcp "dctcpplus"
)

func TestFacadeProtocolRoundTrip(t *testing.T) {
	for _, p := range dcp.Protocols {
		got, err := dcp.ParseProtocol(p.String())
		if err != nil || got != p {
			t.Errorf("round trip %v: %v %v", p, got, err)
		}
	}
}

func TestFacadeIncastEndToEnd(t *testing.T) {
	o := dcp.DefaultIncastOptions(dcp.ProtoDCTCP, 6)
	o.Rounds = 5
	o.WarmupRounds = 1
	r := dcp.RunIncast(o)
	if r.Rounds != 4 {
		t.Fatalf("rounds = %d", r.Rounds)
	}
	if r.GoodputMbps.Mean <= 0 || r.FCTms.Mean <= 0 {
		t.Error("degenerate summaries")
	}
}

func TestFacadeSweepAndDurations(t *testing.T) {
	if dcp.Millisecond != 1000*dcp.Microsecond || dcp.Second != 1000*dcp.Millisecond {
		t.Error("duration units inconsistent")
	}
	o := dcp.DefaultIncastOptions(dcp.ProtoDCTCPPlus, 2)
	o.Rounds = 4
	o.WarmupRounds = 1
	o3 := o
	o3.Flows = 3
	rs := dcp.RunMany([]dcp.IncastOptions{o, o3})
	if len(rs) != 2 || rs[0].Flows != 2 || rs[1].Flows != 3 {
		t.Fatal("sweep shape wrong")
	}
}

func TestFacadeFaultSurface(t *testing.T) {
	all, err := dcp.ParseFaultClasses("all")
	if err != nil || !reflect.DeepEqual(all, dcp.AllFaultClasses()) {
		t.Errorf("ParseFaultClasses(\"all\") = %v, %v; want %v", all, err, dcp.AllFaultClasses())
	}
	if got, err := dcp.ParseFaultClasses("blackout,nosuchclass"); err == nil {
		t.Errorf("ParseFaultClasses with an unknown class = %v, want an error", got)
	}

	gen := dcp.DefaultFaultGenConfig(1)
	o := dcp.DefaultIncastOptions(dcp.ProtoDCTCPPlus, 8)
	o.Rounds = 40
	o.WarmupRounds = 2
	o.Faults = &gen
	a, b := dcp.RunIncast(o), dcp.RunIncast(o)
	for _, r := range []dcp.IncastResult{a, b} {
		if r.FaultStats == nil || r.FaultStats.EventsFired <= 0 {
			t.Fatalf("faulted run over %v fired no fault events: %+v", r.SimTime, r.FaultStats)
		}
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two runs of one faulted incast differ:\n%+v\n%+v", a, b)
	}
}

func TestFacadeEnhancementFactory(t *testing.T) {
	cfg := dcp.DefaultEnhancementConfig()
	if cfg.DivisorFactor != 2 || !cfg.Randomize {
		t.Error("unexpected enhancement defaults")
	}
	cfg.BackoffUnit = 200 * dcp.Microsecond
	o := dcp.DefaultIncastOptions(dcp.ProtoDCTCPPlus, 4)
	o.Rounds = 4
	o.WarmupRounds = 1
	o.Enhancement = &cfg
	r := dcp.RunIncast(o)
	if r.Rounds != 3 {
		t.Fatalf("rounds = %d", r.Rounds)
	}
}

// TestFacadeBackgroundIncast runs the battery's Figs. 11 + 12 entry cut to
// one small point: an entry's Points are plain data a caller may replace.
func TestFacadeBackgroundIncast(t *testing.T) {
	var f *dcp.Figure
	for _, s := range dcp.Battery(dcp.Scale{Rounds: 4, Warmup: 1, Seed: 1}) {
		if strings.HasPrefix(s.Head().Title, "Figures 11 + 12") {
			f = s.(*dcp.Figure)
		}
	}
	if f == nil {
		t.Fatal("Battery has no Figures 11 + 12 entry")
	}
	pt := f.Points[0]
	pt.Protocol, pt.Flows = dcp.ProtoDCTCPPlus, 4
	f.Points = []dcp.IncastOptions{pt}
	f.Run()
	if len(f.Results) != 1 || len(f.Results[0].PerFlowMeanMbps) != 2 {
		t.Fatalf("results = %+v", f.Results)
	}
	var sb strings.Builder
	f.Render(&sb)
	if !strings.Contains(sb.String(), "longflow") {
		t.Errorf("row output missing the long-flow column:\n%s", sb.String())
	}
}

func TestFacadeBenchmark(t *testing.T) {
	o := dcp.DefaultBenchmarkOptions(dcp.ProtoDCTCP)
	o.Traffic.Queries = 10
	o.Traffic.BackgroundFlows = 10
	o.Traffic.BackgroundMaxBytes = 1 << 20
	r := dcp.RunBenchmark(o)
	if r.Queries != 10 || r.Background != 10 {
		t.Fatalf("completed %d/%d", r.Queries, r.Background)
	}
}

func TestFacadeTestbedDefaults(t *testing.T) {
	tb := dcp.DefaultTestbed()
	if tb.Leaves != 3 || tb.HostsPerLeaf != 3 {
		t.Error("testbed shape wrong")
	}
	if tb.Topo.SwitchPort.BufferBytes != 128<<10 || tb.Topo.SwitchPort.MarkThresholdBytes != 32<<10 {
		t.Error("switch parameters do not match the paper")
	}
}
