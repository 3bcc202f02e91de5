package exp

import (
	"runtime"
	"testing"

	"dctcpplus/internal/netsim"
	"dctcpplus/internal/obs"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/tcp"
	"dctcpplus/internal/telemetry"
	"dctcpplus/internal/trace"
)

// TestMergeCwndProbesCountsExactly: the run's cwnd histogram holds every
// probe's every ACK.
func TestMergeCwndProbesCountsExactly(t *testing.T) {
	sched := sim.NewScheduler()
	star := netsim.NewStar(sched, 2, netsim.DefaultTopologyConfig())
	probe := func(flow packet.FlowID, acks int) *trace.CwndProbe {
		snd := tcp.NewConn(tcp.DefaultConfig(), tcp.NewReno{}, star.Hosts[0], star.Hosts[1], flow).Sender
		p := trace.NewCwndProbe()
		p.Attach(snd)
		for i := 0; i < acks; i++ {
			snd.Sink.Emit(obs.Record{Kind: obs.AckProcessed}, nil)
		}
		return p
	}
	if hist := mergeCwndProbes([]*trace.CwndProbe{probe(1, 49), probe(2, 51)}); hist.Total() != 100 {
		t.Errorf("merged histogram holds %d events, want 100", hist.Total())
	}
	if hist := mergeCwndProbes(nil); hist.Total() != 0 {
		t.Errorf("no probes: merged histogram holds %d events", hist.Total())
	}
}

// observedRunExtraBudget is how many more allocations an observed N=20 run
// of 80 rounds may make than one of 20, beyond its extra queue-sample
// blocks. Measured at 5, slice growth; the rest is the runtime's noise,
// which this test, unlike TestRigJobAllocBudget, does not shut out. A
// round keeps counts, not a table per flow, so the 60 extra rounds add
// none. A cost per event would be thousands: the longer run samples the
// queue 7,700 more times and sends over 40,000 more data segments.
const observedRunExtraBudget = 20

// observedRunExtraBytes is how many more bytes the 80-round run may
// allocate than the 20-round one, beyond 4 per extra queue sample.
// Measured below zero: the extra rounds and slice growth take 27.3 KiB,
// less than the 30.2 KiB their 7,725 samples are allowed, because most of
// those samples read an empty queue and share an entry. The constant
// leaves room for the unfilled rest of a 16 KiB sample block. Samples
// stored with their timestamps, 16 bytes each, would add 100 KiB.
const observedRunExtraBytes = 48 << 10

// TestObservedRunAllocBudget pins "per run, not per event" for every
// observer at once: with telemetry, the oracle, cwnd probes and the queue
// sampler attached, running four times the rounds may cost only the extra
// sample blocks and a pinned constant more allocations, and only 4 bytes
// per extra sample and a pinned constant more bytes.
func TestObservedRunAllocBudget(t *testing.T) {
	run := func(rounds int) (mallocs, bytes uint64, samples int) {
		o := DefaultIncastOptions(ProtoDCTCPPlus, 20)
		o.Rounds, o.WarmupRounds = rounds, 2
		o.Telemetry = telemetry.NewRegistry()
		o.Oracle, o.CollectCwnd = true, true
		o.QueueSampleEvery = 100 * sim.Microsecond
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := RunIncast(o)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, res.Queue.Len()
	}
	// A sampler block holds 4,096 entries, so at least 4,096 samples: more
	// when empty samples share an entry.
	blocks := func(samples int) uint64 { return uint64(samples+4095) / 4096 }
	short, shortBytes, shortSamples := run(20)
	long, longBytes, longSamples := run(80)
	budget := short + blocks(longSamples) - blocks(shortSamples) + observedRunExtraBudget
	if long > budget {
		t.Fatalf("80 rounds allocate %d times, 20 rounds %d: want at most %d (%d vs %d queue samples)",
			long, short, budget, longSamples, shortSamples)
	}
	byteBudget := shortBytes + 4*uint64(longSamples-shortSamples) + observedRunExtraBytes
	if longBytes > byteBudget {
		t.Fatalf("80 rounds allocate %d bytes, 20 rounds %d: want at most %d (%d vs %d queue samples)",
			longBytes, shortBytes, byteBudget, longSamples, shortSamples)
	}
}
