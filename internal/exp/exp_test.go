package exp

import (
	"fmt"
	"strings"
	"testing"

	"dctcpplus/internal/sim"
)

func TestProtocolStringsRoundTrip(t *testing.T) {
	for _, p := range Protocols {
		got, err := ParseProtocol(p.String())
		if err != nil || got != p {
			t.Errorf("round trip failed for %v: %v %v", p, got, err)
		}
	}
	if _, err := ParseProtocol("bogus"); err == nil {
		t.Error("bogus protocol parsed")
	}
	if !strings.Contains(Protocol(99).String(), "99") {
		t.Error("unknown protocol string")
	}
}

func TestProtocolFactoriesBuildDistinctSeeds(t *testing.T) {
	for _, p := range Protocols {
		f := p.Factory(10*sim.Millisecond, 7)
		c0, cc0 := f(0, nil)
		c1, cc1 := f(1, nil)
		if c0.Seed == c1.Seed {
			t.Errorf("%v: flows share a seed", p)
		}
		if cc0 == nil || cc1 == nil {
			t.Errorf("%v: nil congestion control", p)
		}
		if c0.RTOMin != 10*sim.Millisecond {
			t.Errorf("%v: RTO not applied", p)
		}
	}
}

func TestProtocolFactoryConfigShapes(t *testing.T) {
	cases := []struct {
		p        Protocol
		minCwnd  float64
		ccName   string
		wantsECN bool
	}{
		{ProtoTCP, 2, "reno", false},
		{ProtoDCTCP, 2, "dctcp", true},
		{ProtoDCTCPMin1, 1, "dctcp", true},
		{ProtoDCTCPPlus, 1, "dctcp+", true},
		{ProtoDCTCPPlusPartial, 1, "dctcp+", true},
		{ProtoRenoPlus, 1, "reno+", true},
		{ProtoD2TCP, 2, "d2tcp", true},
		{ProtoD2TCPPlus, 1, "d2tcp+", true},
	}
	for _, tc := range cases {
		cfg, cc := tc.p.Factory(200*sim.Millisecond, 1)(0, nil)
		if cfg.MinCwnd != tc.minCwnd {
			t.Errorf("%v: MinCwnd = %v, want %v", tc.p, cfg.MinCwnd, tc.minCwnd)
		}
		if cc.Name() != tc.ccName {
			t.Errorf("%v: cc = %q, want %q", tc.p, cc.Name(), tc.ccName)
		}
		hasECN := cfg.ECN != 0
		if hasECN != tc.wantsECN {
			t.Errorf("%v: ECN mode = %v", tc.p, cfg.ECN)
		}
	}
}

// fastIncastOpts returns small, quick options for harness tests.
func fastIncastOpts(p Protocol, flows int) IncastOptions {
	o := DefaultIncastOptions(p, flows)
	o.Rounds = 6
	o.WarmupRounds = 2
	return o
}

// fastBackgroundOpts is fastIncastOpts with the §VI-C pair of long flows at
// a simulation-sized accounting chunk.
func fastBackgroundOpts(p Protocol, flows int) IncastOptions {
	o := fastIncastOpts(p, flows)
	o.BackgroundFlows = 2
	o.ChunkBytes = 1 << 20
	return o
}

func TestRunIncastBasics(t *testing.T) {
	r := RunIncast(fastIncastOpts(ProtoDCTCP, 8))
	if r.Rounds != 4 {
		t.Fatalf("measured rounds = %d, want 4", r.Rounds)
	}
	if r.GoodputMbps.Mean < 700 || r.GoodputMbps.Mean > 1000 {
		t.Errorf("DCTCP N=8 goodput = %.0f, want near line rate", r.GoodputMbps.Mean)
	}
	if r.Timeouts != 0 {
		t.Errorf("unexpected timeouts: %d", r.Timeouts)
	}
	if r.Protocol != ProtoDCTCP || r.Flows != 8 {
		t.Error("identity fields wrong")
	}
	if r.CwndHist != nil || r.Queue.Len() != 0 {
		t.Error("probes attached without being requested")
	}
	if r.PerFlowMeanMbps != nil || r.LongFlowMbps.Count != 0 {
		t.Error("long-flow numbers on a run without background flows")
	}
}

func TestRunIncastDeterministic(t *testing.T) {
	a := RunIncast(fastIncastOpts(ProtoDCTCPPlus, 12))
	b := RunIncast(fastIncastOpts(ProtoDCTCPPlus, 12))
	if a.GoodputMbps != b.GoodputMbps || a.FCTms != b.FCTms || a.Timeouts != b.Timeouts {
		t.Error("same options produced different results")
	}
}

func TestRunIncastProbes(t *testing.T) {
	o := fastIncastOpts(ProtoDCTCP, 16)
	o.CollectCwnd = true
	o.QueueSampleEvery = 100 * sim.Microsecond
	r := RunIncast(o)
	if r.CwndHist == nil || r.CwndHist.Total() == 0 {
		t.Fatal("no cwnd histogram")
	}
	if r.Queue.Len() == 0 || r.Queue.Every != o.QueueSampleEvery {
		t.Fatalf("queue series: %d samples every %v, want some every %v", r.Queue.Len(), r.Queue.Every, o.QueueSampleEvery)
	}
	// One Start at t=0: the series spans the run at the sampling period.
	last, _ := r.Queue.Sample(r.Queue.Len() - 1)
	if gap := r.SimTime - last.Sub(0); gap < 0 || gap >= o.QueueSampleEvery {
		t.Errorf("last sample at %v of a %v run every %v", last, r.SimTime, o.QueueSampleEvery)
	}
	cdf := r.QueueCDF()
	if cdf.Len() != r.Queue.Len() {
		t.Error("CDF size mismatch")
	}
	// With 16 DCTCP flows, queue builds: max sample must exceed K/2.
	if cdf.Quantile(1) < 16<<10 {
		t.Errorf("max queue sample = %.0f, expected pressure near K", cdf.Quantile(1))
	}
}

func TestRunIncastTimeoutTaxonomyPartitions(t *testing.T) {
	o := fastIncastOpts(ProtoTCP, 32)
	o.RTOMin = 10 * sim.Millisecond
	r := RunIncast(o)
	if r.Timeouts == 0 {
		t.Fatal("32-flow TCP incast should time out")
	}
	if r.FLossTO+r.LAckTO != r.Timeouts {
		t.Errorf("taxonomy %d+%d != %d", r.FLossTO, r.LAckTO, r.Timeouts)
	}
	if r.TimeoutRoundFrac <= 0 {
		t.Error("TimeoutRoundFrac zero despite timeouts")
	}
}

func TestRunIncastValidation(t *testing.T) {
	o := fastIncastOpts(ProtoTCP, 4)
	o.WarmupRounds = o.Rounds
	defer func() {
		if recover() == nil {
			t.Error("rounds <= warmup did not panic")
		}
	}()
	RunIncast(o)
}

// TestValidateNamesBadOptions: options that would crash mid-run (a negative
// warm-up slices the round list at -1, an RTOmin above tcp's RTO ceiling
// panics in tcp) or run without measuring anything (no byte budget,
// negative service jitter) fail Validate naming the field, and RunIncast
// panics with that exp: message before it builds.
func TestValidateNamesBadOptions(t *testing.T) {
	cases := []struct {
		name, want string
		spoil      func(o *IncastOptions)
	}{
		{"negative warmup", "WarmupRounds -1 cannot be negative", func(o *IncastOptions) { o.WarmupRounds = -1 }},
		{"no byte budget", "need a positive byte budget", func(o *IncastOptions) { o.TotalBytes, o.BytesPerFlow = 0, 0 }},
		{"negative per-flow bytes", "need a positive byte budget", func(o *IncastOptions) { o.BytesPerFlow = -1 }},
		{"negative jitter", "ServiceJitter -1ns cannot be negative", func(o *IncastOptions) { o.Testbed.ServiceJitter = -1 }},
		{"rtomin above the ceiling", "RTOMin 5s exceeds the RTO ceiling 4s", func(o *IncastOptions) { o.RTOMin = 5 * sim.Second }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := fastIncastOpts(ProtoDCTCP, 4)
			if err := o.Validate(); err != nil {
				t.Fatalf("unspoiled options rejected: %v", err)
			}
			c.spoil(&o)
			if err := o.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate() = %v, want an error containing %q", err, c.want)
			}
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				RunIncast(o)
				return "no panic"
			}()
			if !strings.HasPrefix(msg, "exp: ") || !strings.Contains(msg, c.want) {
				t.Errorf("RunIncast panic = %q, want exp: ...%q", msg, c.want)
			}
		})
	}
}

// TestTruncatedRunSaysSo: a run that MaxSimTime stops before its last round
// carries Truncated, naming the measured and asked rounds; a complete run
// carries nil.
func TestTruncatedRunSaysSo(t *testing.T) {
	o := fastIncastOpts(ProtoDCTCP, 8)
	if r := RunIncast(o); r.Truncated != nil {
		t.Fatalf("complete run marked truncated: %v", r.Truncated)
	}
	o.MaxSimTime = 5 * sim.Millisecond
	r := RunIncast(o)
	if r.Truncated == nil {
		t.Fatalf("run stopped at %v with %d measured rounds is not marked truncated", r.SimTime, r.Rounds)
	}
	want := fmt.Sprintf("%d of 4 measured rounds", r.Rounds)
	if msg := r.Truncated.Error(); !strings.Contains(msg, want) || !strings.Contains(msg, "MaxSimTime 5ms") {
		t.Errorf("Truncated = %q, want it to contain %q and the MaxSimTime", msg, want)
	}
}

func TestSweepIncast(t *testing.T) {
	rs := RunMany([]IncastOptions{fastIncastOpts(ProtoDCTCP, 2), fastIncastOpts(ProtoDCTCP, 4)})
	if len(rs) != 2 || rs[0].Flows != 2 || rs[1].Flows != 4 {
		t.Fatalf("sweep shape wrong: %+v", rs)
	}
	var sb strings.Builder
	PrintIncastRows(&sb, rs)
	out := sb.String()
	if !strings.Contains(out, "dctcp") || !strings.Contains(out, "goodput") {
		t.Errorf("row output missing fields:\n%s", out)
	}
}

func TestRunBackgroundIncast(t *testing.T) {
	r := RunIncast(fastBackgroundOpts(ProtoDCTCPPlus, 8))
	if r.Rounds != 4 {
		t.Fatalf("rounds = %d", r.Rounds)
	}
	if len(r.PerFlowMeanMbps) != 2 {
		t.Fatalf("long flows = %d", len(r.PerFlowMeanMbps))
	}
	if r.LongFlowMbps.Count == 0 {
		t.Fatal("no long-flow chunks completed")
	}
	// Two long flows + incast share 1Gbps: each long flow gets a share but
	// not the whole link.
	for i, m := range r.PerFlowMeanMbps {
		if m <= 0 || m > 1000 {
			t.Errorf("long flow %d mean = %.0f Mbps", i, m)
		}
	}
	var sb strings.Builder
	PrintBackgroundIncastRows(&sb, []IncastResult{r})
	if !strings.Contains(sb.String(), "longflow") {
		t.Error("row output missing longflow column")
	}
}

func TestRunBackgroundIncastValidation(t *testing.T) {
	o := fastBackgroundOpts(ProtoDCTCP, 4)
	o.BackgroundFlows = 100
	defer func() {
		if recover() == nil {
			t.Error("too many background flows did not panic")
		}
	}()
	RunIncast(o)
}

func TestRunBenchmark(t *testing.T) {
	o := DefaultBenchmarkOptions(ProtoDCTCP)
	o.Traffic.Queries = 30
	o.Traffic.BackgroundFlows = 30
	o.Traffic.BackgroundMaxBytes = 1 << 20
	r := RunBenchmark(o)
	if r.Queries != 30 || r.Background != 30 {
		t.Fatalf("completed %d queries, %d background", r.Queries, r.Background)
	}
	if r.QueryFCTms.Mean <= 0 || r.BackgroundFCTms.Mean <= 0 {
		t.Error("non-positive FCT summaries")
	}
	var sb strings.Builder
	PrintBenchmarkRows(&sb, []BenchmarkResult{r})
	if !strings.Contains(sb.String(), "q.p99") {
		t.Error("row output missing columns")
	}
}

// TestRunBenchmarkValidatesBeforeBuild: RunBenchmark shares RunIncast's run
// check, so each option a layer below would panic on mid-build — tcp on the
// RTO floor, the protocol factory, netsim on an empty tree — panics with the
// exp: message first. Every row also carries an empty traffic mix, which
// workload.NewBenchmark would reject once the tree was built.
func TestRunBenchmarkValidatesBeforeBuild(t *testing.T) {
	cases := []struct {
		name, want string
		spoil      func(o *BenchmarkOptions)
	}{
		{"zero rtomin", "exp: RTOMin must be positive", func(o *BenchmarkOptions) { o.RTOMin = 0 }},
		{"negative rtomin", "exp: RTOMin must be positive", func(o *BenchmarkOptions) { o.RTOMin = -sim.Millisecond }},
		{"unknown protocol", "exp: unknown protocol Protocol(8)", func(o *BenchmarkOptions) { o.Protocol = Protocol(len(Protocols)) }},
		{"no leaves", "exp: Testbed needs at least one leaf and one host per leaf", func(o *BenchmarkOptions) { o.Testbed.Leaves = 0 }},
		{"no hosts per leaf", "exp: Testbed needs at least one leaf and one host per leaf", func(o *BenchmarkOptions) { o.Testbed.HostsPerLeaf = 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := DefaultBenchmarkOptions(ProtoDCTCP)
			o.Traffic.Queries, o.Traffic.ShortFlows, o.Traffic.BackgroundFlows = 0, 0, 0
			c.spoil(&o)
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				RunBenchmark(o)
				return "no panic"
			}()
			if msg != c.want {
				t.Errorf("panic = %q, want %q", msg, c.want)
			}
		})
	}
}

func TestKeepRoundsAndConvergence(t *testing.T) {
	o := fastIncastOpts(ProtoDCTCPPlus, 48)
	o.Rounds = 10
	o.WarmupRounds = 2
	o.KeepRounds = true
	r := RunIncast(o)
	if len(r.Series) != 10 {
		t.Fatalf("series = %d rounds, want all 10", len(r.Series))
	}
	for i, p := range r.Series {
		if p.FCTms <= 0 || p.GoodputMbps <= 0 {
			t.Errorf("round %d degenerate: %+v", i, p)
		}
		if i > 0 && p.Start <= r.Series[i-1].Start {
			t.Errorf("round %d start not increasing", i)
		}
	}
	// 48 DCTCP+ flows converge within a handful of rounds.
	if c := r.ConvergedAtRound(); c < 0 || c > 6 {
		t.Errorf("ConvergedAtRound = %d, want early convergence", c)
	}
}

func TestConvergedAtRoundEdgeCases(t *testing.T) {
	if (IncastResult{}).ConvergedAtRound() != -1 {
		t.Error("no series should report -1")
	}
	r := IncastResult{Series: []RoundPoint{{FlowTimeouts: 1}, {FlowTimeouts: 0}}}
	if r.ConvergedAtRound() != 1 {
		t.Error("want convergence at round 1")
	}
	r = IncastResult{Series: []RoundPoint{{FlowTimeouts: 0}, {FlowTimeouts: 2}}}
	if r.ConvergedAtRound() != -1 {
		t.Error("timeout in last round should report -1")
	}
	r = IncastResult{Series: []RoundPoint{{}, {}}}
	if r.ConvergedAtRound() != 0 {
		t.Error("never-timed-out run converges at round 0")
	}
}

func TestTestbedBuild(t *testing.T) {
	tb := DefaultTestbed()
	sched, tt := tb.build()
	if sched == nil || len(tt.Workers) != 9 {
		t.Fatal("testbed shape wrong")
	}
}

func TestHULLTestbedKeepsQueueNearEmpty(t *testing.T) {
	// DCTCP over HULL phantom queues: marks arrive before real queueing,
	// so the bottleneck queue's p99 sits far below the standard testbed's
	// K=32KB oscillation.
	std := fastIncastOpts(ProtoDCTCP, 16)
	std.QueueSampleEvery = 100 * sim.Microsecond
	base := RunIncast(std)

	hull := fastIncastOpts(ProtoDCTCP, 16)
	hull.Testbed = HULLTestbed()
	hull.QueueSampleEvery = 100 * sim.Microsecond
	h := RunIncast(hull)

	bp99 := base.QueueCDF().Quantile(0.99)
	hp99 := h.QueueCDF().Quantile(0.99)
	if hp99 >= bp99/2 {
		t.Errorf("HULL p99 queue %.0f vs standard %.0f: want far smaller", hp99, bp99)
	}
	// The bandwidth tax: HULL goodput sits below standard but remains
	// functional.
	if h.GoodputMbps.Mean < 300 {
		t.Errorf("HULL goodput %.0f collapsed", h.GoodputMbps.Mean)
	}
	if h.GoodputMbps.Mean > base.GoodputMbps.Mean {
		t.Errorf("HULL goodput %.0f above standard %.0f: the phantom tax vanished",
			h.GoodputMbps.Mean, base.GoodputMbps.Mean)
	}
}

func TestPerFlowBytesOverride(t *testing.T) {
	o := DefaultIncastOptions(ProtoDCTCP, 10)
	if o.perFlowBytes() != (1<<20)/10 {
		t.Errorf("split = %d", o.perFlowBytes())
	}
	o.BytesPerFlow = 4 << 20
	if o.perFlowBytes() != 4<<20 {
		t.Errorf("override = %d", o.perFlowBytes())
	}
	o.BytesPerFlow = 0
	o.TotalBytes = 5
	o.Flows = 10
	if o.perFlowBytes() != 1 {
		t.Error("sub-byte split should clamp to 1")
	}
}
