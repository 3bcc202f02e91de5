package workload

import (
	"testing"
	"testing/quick"

	"dctcpplus/internal/core"
	"dctcpplus/internal/dctcp"
	"dctcpplus/internal/netsim"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/tcp"
)

// TestIncastConservationProperty: for arbitrary small configurations and
// seeds, across every protocol family, the incast run conserves bytes
// exactly — every flow delivers rounds x perFlow bytes in order, the
// timeout taxonomy partitions the timeout count, and the bottleneck's
// packet accounting balances.
func TestIncastConservationProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	f := func(seed uint64, nRaw, protoRaw, roundsRaw uint8) bool {
		n := int(nRaw%24) + 1
		rounds := int(roundsRaw%4) + 1
		per := int64(4<<10) + int64(seed%1000)

		sched := sim.NewScheduler()
		tt := netsim.NewTwoTier(sched, 3, 3, netsim.DefaultTopologyConfig())
		var factory FlowFactory
		switch protoRaw % 3 {
		case 0:
			factory = func(i int, _ tcp.CongestionControl) (tcp.Config, tcp.CongestionControl) {
				cfg := tcp.DefaultConfig()
				cfg.RTOMin = 10 * sim.Millisecond
				cfg.Seed = seed + uint64(i)
				return cfg, tcp.NewReno{}
			}
		case 1:
			factory = func(i int, _ tcp.CongestionControl) (tcp.Config, tcp.CongestionControl) {
				cfg := dctcp.Config()
				cfg.RTOMin = 10 * sim.Millisecond
				cfg.Seed = seed + uint64(i)
				return cfg, dctcp.New(dctcp.DefaultGain)
			}
		default:
			factory = func(i int, _ tcp.CongestionControl) (tcp.Config, tcp.CongestionControl) {
				cfg := core.SenderConfig()
				cfg.RTOMin = 10 * sim.Millisecond
				cfg.Seed = seed + uint64(i)
				return cfg, core.New(dctcp.DefaultGain, core.DefaultConfig())
			}
		}
		in := NewIncast(sched, tt, IncastConfig{
			Flows:         n,
			BytesPerFlow:  per,
			Rounds:        rounds,
			Factory:       factory,
			ServiceJitter: sim.Duration(seed%4) * sim.Millisecond,
			Seed:          seed,
		})
		in.OnFinished = sched.Halt
		in.Start()
		sched.RunUntil(sim.Time(5 * 60 * sim.Second))
		if !in.Finished() {
			return false
		}
		want := per * int64(rounds)
		for _, c := range in.Conns() {
			if c.Receiver.Stats().DeliveredByte != want {
				return false
			}
			st := c.Sender.Stats()
			if st.FLossTimeouts+st.LAckTimeouts != st.Timeouts {
				return false
			}
			if st.RetransPkts > st.SentPkts {
				return false
			}
		}
		// Port accounting balances at the bottleneck.
		ps := tt.BottleneckPort.Stats()
		if ps.DequeuedPkts != ps.EnqueuedPkts {
			return false
		}
		return tt.BottleneckPort.QueueBytes() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
