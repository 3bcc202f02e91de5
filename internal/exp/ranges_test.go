package exp

import (
	"math"
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

// TestSampledFieldsStayInRange runs three seeded incasts mixing plain DCTCP
// (alpha observable) and DCTCP+ (slowTime observable) flows and samples
// each ranged field through its accessor on a 10 µs cadence — packets at
// every transmission through the bottleneck port — requiring every sample
// inside the range the field's doc comment states and at least 100 samples
// per field. Packet.Payload has no other run-time check.
func TestSampledFieldsStayInRange(t *testing.T) {
	inf := math.Inf(1)
	samples := map[string]int{}
	observe := func(field string, v, lo, hi float64) {
		if !(v >= lo && v <= hi) {
			t.Fatalf("%s = %g outside [%g, %g]", field, v, lo, hi)
		}
		samples[field]++
	}

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
			observe("packet.Packet.Payload", float64(pkt.Payload), 0, inf)
		})

		factory := func(i int, _ tcp.CongestionControl) (tcp.Config, tcp.CongestionControl) {
			if i%2 == 0 {
				cfg := dctcp.Config()
				cfg.RTOMin = 10 * sim.Millisecond
				cfg.Seed = run.seed*1000 + uint64(i) + 1
				return cfg, dctcp.New(dctcp.DefaultGain)
			}
			cfg := core.SenderConfig()
			cfg.RTOMin = 10 * sim.Millisecond
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
				observe("tcp.Sender.cwnd", c.Sender.CwndMSS(), 1, inf)
				observe("tcp.Sender.ssthresh", c.Sender.SsthreshMSS(), 1, inf)
				observe("tcp.Sender.rtoBackoff", float64(c.Sender.RTOBackoff()), 0, 16)
				switch cc := c.Sender.CC().(type) {
				case *dctcp.DCTCP:
					observe("dctcp.DCTCP.alpha", cc.Alpha(), 0, 1)
				case *core.Enhancer:
					observe("core.Enhancer.slowTime", float64(cc.SlowTime()), 0, inf)
				}
			}
			observe("netsim.Port.qBytes", float64(tt.BottleneckPort.QueueBytes()), 0, float64(topo.SwitchPort.BufferBytes))
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

	for _, field := range []string{
		"tcp.Sender.cwnd", "tcp.Sender.ssthresh", "tcp.Sender.rtoBackoff",
		"dctcp.DCTCP.alpha", "core.Enhancer.slowTime", "netsim.Port.qBytes",
		"packet.Packet.Payload",
	} {
		if samples[field] < 100 {
			t.Errorf("%s: only %d samples; the sampler checked almost nothing", field, samples[field])
		}
	}
}
