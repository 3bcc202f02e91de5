package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dctcpplus/internal/core"
	"dctcpplus/internal/dctcp"
	"dctcpplus/internal/netsim"
	"dctcpplus/internal/obs"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/tcp"
	"dctcpplus/internal/workload"
)

// twin names how one //inv: field contract is enforced at run time. A row
// may name several; every one it names is verified.
type twin struct {
	// asserted is the label of an always-on internal/check call on the
	// field, in the package that declares it. The owning package's tests
	// corrupt the field and observe the panic.
	asserted string
	// rejects feeds the constructor a config violating only this field; it
	// must panic with a message containing rejectMsg.
	rejects   func()
	rejectMsg string
	// sampled: the seeded incasts below observe the field through an
	// existing accessor, at least 100 times, always inside its range.
	sampled bool
}

func tcpConfig(edit func(*tcp.Config)) func() {
	return func() {
		cfg := tcp.DefaultConfig()
		edit(&cfg)
		tcp.NewSender(cfg, nil, nil, 0, 0)
	}
}

func coreConfig(edit func(*core.Config)) func() {
	return func() {
		cfg := core.DefaultConfig()
		edit(&cfg)
		core.New(dctcp.DefaultGain, cfg)
	}
}

// runtimeTwins is the one table behind "//inv: means declared, enforced at
// run time": every field contract in the module has a row here, or
// TestContractsHoldAtRuntime fails naming it.
var runtimeTwins = map[string]twin{
	"tcp.Sender.cwnd":          {asserted: "tcp.cwnd (MSS)", sampled: true},
	"tcp.Sender.ssthresh":      {asserted: "tcp.ssthresh (MSS)", sampled: true},
	"tcp.Sender.ltCredit":      {asserted: "tcp.limited-transmit credit"},
	"tcp.Sender.rtoBackoff":    {asserted: "tcp.rto backoff exponent", sampled: true},
	"tcp.Receiver.pendingSegs": {asserted: "tcp.receiver pending segments"},
	"dctcp.DCTCP.alpha":        {asserted: "dctcp.alpha", sampled: true},
	"core.Enhancer.slowTime":   {asserted: "core.slow_time", sampled: true},
	"netsim.Port.qBytes":       {asserted: "netsim.port queue bytes", sampled: true},
	"oracle.Checker.ringLen":   {asserted: "oracle.ring fill"},
	"packet.Packet.Payload":    {sampled: true},

	"tcp.Config.MSS":         {rejects: tcpConfig(func(c *tcp.Config) { c.MSS = 0 }), rejectMsg: "MSS must be positive"},
	"tcp.Config.InitialCwnd": {rejects: tcpConfig(func(c *tcp.Config) { c.InitialCwnd = 0.5 }), rejectMsg: "InitialCwnd must be >= 1"},
	"tcp.Config.MinCwnd":     {rejects: tcpConfig(func(c *tcp.Config) { c.MinCwnd = 0.5 }), rejectMsg: "MinCwnd must be >= 1"},
	"tcp.Config.MaxCwnd":     {rejects: tcpConfig(func(c *tcp.Config) { c.MaxCwnd = 0.5 }), rejectMsg: "MaxCwnd must be >= InitialCwnd"},
	"tcp.Config.DupThresh":   {rejects: tcpConfig(func(c *tcp.Config) { c.DupThresh = 0 }), rejectMsg: "DupThresh must be >= 1"},
	"tcp.Config.DelAckCount": {rejects: tcpConfig(func(c *tcp.Config) { c.DelAckCount = 0 }), rejectMsg: "DelAckCount must be >= 1"},

	"dctcp.DCTCP.g": {rejects: func() { dctcp.New(0) }, rejectMsg: "gain must be in (0, 1]"},

	"core.Config.BackoffUnit":   {rejects: coreConfig(func(c *core.Config) { c.BackoffUnit = 0 }), rejectMsg: "BackoffUnit must be positive"},
	"core.Config.DivisorFactor": {rejects: coreConfig(func(c *core.Config) { c.DivisorFactor = 1 }), rejectMsg: "DivisorFactor must exceed 1"},
	"core.Config.ThresholdT":    {rejects: coreConfig(func(c *core.Config) { c.ThresholdT = -1 }), rejectMsg: "negative ThresholdT"},
	"core.Config.DecayInterval": {rejects: coreConfig(func(c *core.Config) { c.DecayInterval = -1 }), rejectMsg: "negative DecayInterval"},

	"netsim.PortConfig.BufferBytes": {rejects: func() {
		cfg := netsim.DefaultPortConfig()
		cfg.BufferBytes = 0
		netsim.NewPort(sim.NewScheduler(), nil, cfg)
	}, rejectMsg: "port buffer must be positive"},
	"netsim.TopologyConfig.HostQueueBytes": {rejects: func() {
		cfg := netsim.DefaultTopologyConfig()
		cfg.HostQueueBytes = 0
		netsim.NewTwoTier(sim.NewScheduler(), 1, 1, cfg)
	}, rejectMsg: "port buffer must be positive"},
}

// TestContractsHoldAtRuntime is the gate on the //inv: rule: a contract is
// a declared range that overflow trusts, so each one must be enforced
// where the simulator runs. The test reads every field contract out of the
// real sources and requires its runtimeTwins row to hold — the named
// check.* assertion exists on that field, the constructor rejects the
// violating config, or the seeded mixed DCTCP/DCTCP+ incasts below observe
// the field inside its declared range. A contract without a row, a row
// without a contract, or a twin that cannot be found or exercised fails
// naming the field.
func TestContractsHoldAtRuntime(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the module, then runs incasts")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	tbl := pkgs[0].Prog.contracts()
	for _, errs := range tbl.errs {
		for _, d := range errs {
			t.Errorf("malformed contract: %s", d)
		}
	}

	contracts := map[string]*fieldContract{}
	for fv, fc := range tbl.fields {
		contracts[fv.Pkg().Name()+"."+fc.owner.Name()+"."+fv.Name()] = fc
	}
	for key := range runtimeTwins {
		if contracts[key] == nil {
			t.Errorf("%s: runtimeTwins row without an //inv: contract; delete the row", key)
		}
	}
	keys := make([]string, 0, len(contracts))
	for key := range contracts {
		keys = append(keys, key)
	}
	sort.Strings(keys)

	// Sanity-pin the numeric halves so a weakened annotation (say alpha's
	// upper bound dropped) fails the test instead of trivializing it.
	for key, want := range map[string]ival{
		"dctcp.DCTCP.alpha":      {0, 1},
		"tcp.Sender.cwnd":        {1, math.Inf(1)},
		"core.Enhancer.slowTime": {0, math.Inf(1)},
		"netsim.Port.qBytes":     {0, math.Inf(1)},
	} {
		if fc := contracts[key]; fc != nil && declaredRange(fc) != want {
			t.Fatalf("%s declares %v, want %v", key, declaredRange(fc), want)
		}
	}

	observed := map[string]int{}
	observe := func(key string, v float64) {
		fc := contracts[key]
		if fc == nil {
			t.Fatalf("%s: sampled, but it carries no //inv: contract", key)
		}
		if r := declaredRange(fc); !(v >= r.lo && v <= r.hi) {
			t.Fatalf("%s = %g outside declared [%g, %g]", key, v, r.lo, r.hi)
		}
		observed[key]++
	}
	runSampledIncasts(t, observe)

	for _, key := range keys {
		fc, row := contracts[key], runtimeTwins[key]
		if row.asserted == "" && row.rejects == nil && !row.sampled {
			t.Errorf("%s: //inv: contract without a runtime twin; add a runtimeTwins row naming its check.* assertion, rejecting constructor or sampler", key)
			continue
		}
		if row.asserted != "" && !assertsField(pkgs, fc.field, row.asserted) {
			t.Errorf("%s: no internal/check call labelled %q on the field in package %s", key, row.asserted, fc.field.Pkg().Name())
		}
		if row.rejects != nil {
			if msg := panicMessage(row.rejects); !strings.Contains(msg, row.rejectMsg) {
				t.Errorf("%s: constructor given the violating config panicked with %q, want a panic containing %q", key, msg, row.rejectMsg)
			}
		}
		if row.sampled && observed[key] < 100 {
			t.Errorf("%s: only %d runtime samples; the sampler checked almost nothing", key, observed[key])
		}
	}
}

// ival is a closed numeric interval [lo, hi] over the extended reals.
type ival struct{ lo, hi float64 }

// declaredRange is the interval a contract's numeric atoms declare;
// symbolic bounds (qBytes <= cfg.BufferBytes) are sampled against the
// concrete config instead.
func declaredRange(fc *fieldContract) ival {
	v := ival{math.Inf(-1), math.Inf(1)}
	for _, a := range fc.atoms {
		switch {
		case a.symbolic:
		case a.upper:
			v.hi = math.Min(v.hi, a.num)
		default:
			v.lo = math.Max(v.lo, a.num)
		}
	}
	return v
}

// assertsField reports whether the package declaring field calls an
// internal/check assertion whose label is the given string constant and
// whose value arguments read the field.
func assertsField(pkgs []*Package, field *types.Var, label string) bool {
	for _, p := range pkgs {
		if p.Types != field.Pkg() {
			continue
		}
		found := false
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || found || len(call.Args) < 2 {
					return !found
				}
				callee, _ := p.calleeOf(call)
				if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "dctcpplus/internal/check" {
					return true
				}
				tv := p.Info.Types[call.Args[0]]
				if tv.Value == nil || tv.Value.Kind() != constant.String || constant.StringVal(tv.Value) != label {
					return true
				}
				for _, arg := range call.Args[1:] {
					ast.Inspect(arg, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] == field {
							found = true
						}
						return !found
					})
				}
				return !found
			})
		}
		return found
	}
	return false
}

// panicMessage runs fn and returns what it panicked with ("" if it
// returned normally).
func panicMessage(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// runSampledIncasts runs three seeded incasts mixing plain DCTCP (alpha
// observable) and DCTCP+ (slowTime observable) flows and feeds every
// sampled field to observe, on a 10 µs cadence and, for packets, at every
// transmission through the bottleneck port.
func runSampledIncasts(t *testing.T, observe func(key string, v float64)) {
	for _, run := range []struct {
		seed  uint64
		flows int
	}{
		{seed: 1, flows: 12},
		{seed: 7, flows: 24},
		{seed: 23, flows: 40},
	} {
		sched := sim.NewScheduler()
		topo := netsim.DefaultTopologyConfig()
		tt := netsim.NewTwoTier(sched, 3, 3, topo)
		tt.BottleneckPort.Sink.Subscribe(new(obs.Sub), func(_ obs.Record, pkt *packet.Packet) {
			observe("packet.Packet.Payload", float64(pkt.Payload))
		})

		factory := func(i int, _ tcp.CongestionControl) (tcp.Config, tcp.CongestionControl) {
			if i%2 == 0 {
				cfg := dctcp.Config()
				cfg.RTOMin, cfg.RTOInit = 10*sim.Millisecond, 10*sim.Millisecond
				cfg.Seed = run.seed*1000 + uint64(i) + 1
				return cfg, dctcp.New(dctcp.DefaultGain)
			}
			cfg := core.SenderConfig()
			cfg.RTOMin, cfg.RTOInit = 10*sim.Millisecond, 10*sim.Millisecond
			cfg.Seed = run.seed*1000 + uint64(i) + 1
			return cfg, core.New(dctcp.DefaultGain, core.DefaultConfig())
		}
		in := workload.NewIncast(sched, tt, workload.IncastConfig{
			Flows:        run.flows,
			BytesPerFlow: 4000,
			Rounds:       5,
			Factory:      factory,
			Seed:         run.seed,
		})

		var sample func()
		sample = func() {
			for _, c := range in.Conns() {
				observe("tcp.Sender.cwnd", c.Sender.CwndMSS())
				observe("tcp.Sender.ssthresh", c.Sender.SsthreshMSS())
				observe("tcp.Sender.rtoBackoff", float64(c.Sender.RTOBackoff()))
				switch cc := c.Sender.CC().(type) {
				case *dctcp.DCTCP:
					observe("dctcp.DCTCP.alpha", cc.Alpha())
				case *core.Enhancer:
					observe("core.Enhancer.slowTime", float64(cc.SlowTime()))
				}
			}
			// qBytes' upper bound is symbolic (cfg.BufferBytes), so the
			// runtime leg checks it against the concrete config of the
			// port being sampled.
			q := tt.BottleneckPort.QueueBytes()
			observe("netsim.Port.qBytes", float64(q))
			if q > topo.SwitchPort.BufferBytes {
				t.Fatalf("seed %d: qBytes %d above the port's %d-byte buffer", run.seed, q, topo.SwitchPort.BufferBytes)
			}
			sched.After(10*sim.Microsecond, sample)
		}
		sched.After(10*sim.Microsecond, sample)

		in.OnFinished = sched.Halt
		in.Start()
		sched.RunUntil(sim.Time(60 * sim.Second))

		if !in.Finished() {
			t.Fatalf("seed %d: incast did not finish", run.seed)
		}
	}
}
