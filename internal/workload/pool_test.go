package workload

import (
	"testing"

	"dctcpplus/internal/netsim"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
)

// injected counts the packets the topology's hosts handed to the network.
func injected(tt *netsim.TwoTier) int64 {
	var n int64
	for _, h := range append([]*netsim.Host{tt.Aggregator}, tt.Workers...) {
		st := h.Uplink().Stats()
		n += st.EnqueuedPkts + st.DroppedPkts
	}
	return n
}

// There is one mint path: every packet of a run — the aggregator's
// requests included — comes from the pool (Gets == packets injected) and
// is recycled where it leaves the network, so the pool holds the in-flight
// working set and the length of the run (how many requests it issues) does
// not show up in Minted. Requests built outside the pool used to be
// recycled into it: one extra Packet per request for the whole run.
func TestPoolWorkingSetIndependentOfRunLength(t *testing.T) {
	// slack absorbs a later round or query burst peaking a few packets
	// higher; the per-request term it guards against is 600 (incast) and
	// 1350 (benchmark) packets.
	const slack = 64
	minted := func(name string, tt *netsim.TwoTier, pool *packet.Pool) int64 {
		if gets, sent := pool.Minted()+pool.Recycled(), injected(tt); gets != sent {
			t.Errorf("%s: %d packets injected but %d minted from the pool", name, sent, gets)
		}
		return pool.Minted()
	}
	incast := func(rounds int) int64 {
		in, pool := runPooledIncast(t, IncastConfig{
			Flows:        40,
			BytesPerFlow: (1 << 20) / 40,
			Rounds:       rounds,
			Factory:      plusFactory(200 * sim.Millisecond),
		})
		return minted("incast", in.tt, pool)
	}
	benchmark := func(queries int) int64 {
		cfg := smallBenchCfg()
		cfg.Queries = queries
		b, pool := runPooledBenchmark(t, cfg)
		return minted("benchmark", b.tt, pool)
	}
	for _, c := range []struct {
		name        string
		short, long int64
	}{
		{"incast 5 vs 20 rounds", incast(5), incast(20)},
		{"benchmark 50 vs 200 queries", benchmark(50), benchmark(200)},
	} {
		if c.short <= 0 {
			t.Errorf("%s: short run minted %d pooled packets, want > 0", c.name, c.short)
		}
		if c.long > c.short+slack {
			t.Errorf("%s: minted %d vs %d: the pool grows with run length", c.name, c.long, c.short)
		}
	}
}
