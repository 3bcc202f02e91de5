package exp

import (
	"runtime"
	"slices"
	"testing"

	"dctcpplus/internal/fault"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/telemetry"
)

// This file sorts first among the package's tests, so TestRigJobAllocBudget
// runs before any other test has grown long-lived state: a slice that
// outlives its run grows by a quarter of its length at a time, and one that
// earlier runs had made long would take many more repeats to grow again.

// rigJob is one row of TestRigJobAllocBudget: options a warm rig runs
// again and again, unchanged, and the mallocs one repeat makes, measured.
type rigJob struct {
	name    string
	o       IncastOptions
	mallocs uint64
}

// rigJobs reaches every function of the per-packet path: each protocol
// (DCTCP+ at N=200, where its TimeInc state engages), HULL's phantom-queue
// marking, each fault class, background long flows and the observed shape
// (telemetry, the oracle, cwnd probes and queue sampling). The loss row
// drops hundreds of packets a run, so retransmission, reassembly and RTO
// repair run too. A plain row's repeat mallocs 5 times (the factory
// closure, the two summaries' sample slices and their NaN-filtered
// copies): every layer's state is reset and reused, not rebuilt, while a
// fresh RunIncast of the same job allocates about 730 times. A fault row
// adds its plan and two closures per episode, the background row its long
// flows, and the observed row its per-run observers.
func rigJobs() []rigJob {
	base := DefaultIncastOptions(ProtoDCTCP, 40)
	base.Rounds, base.WarmupRounds = 6, 1
	base.RTOMin = 10 * sim.Millisecond
	var jobs []rigJob
	for _, p := range Protocols {
		o := base
		o.Protocol = p
		if p == ProtoDCTCPPlus {
			o.Flows = 200
		}
		jobs = append(jobs, rigJob{p.String(), o, 5})
	}
	o := base
	o.Testbed = HULLTestbed()
	jobs = append(jobs, rigJob{"hull", o, 5})
	for _, c := range fault.AllClasses() {
		gen := fault.DefaultGenConfig(5)
		gen.Classes = []fault.Class{c}
		gen.Start, gen.Window, gen.Dur = sim.Time(2*sim.Millisecond), 20*sim.Millisecond, 3*sim.Millisecond
		o, mallocs := base, uint64(46)
		if c == fault.ClassLoss {
			gen.Episodes, gen.Start, gen.Window, gen.Dur, gen.LossRate = 16, 0, 100*sim.Millisecond, 100*sim.Millisecond, 0.1
			o.Rounds, mallocs = 20, 127
		}
		o.Faults = &gen
		jobs = append(jobs, rigJob{"fault-" + c.String(), o, mallocs})
	}
	o = base
	o.BackgroundFlows, o.ChunkBytes = 2, 256<<10
	jobs = append(jobs, rigJob{"background", o, 34})
	o = base
	o.Protocol = ProtoDCTCPPlus
	o.Telemetry = telemetry.NewRegistry()
	o.Oracle, o.CollectCwnd, o.QueueSampleEvery = true, true, 100*sim.Microsecond
	jobs = append(jobs, rigJob{"observed", o, 439})
	return jobs
}

// rigJobRepeats is how many measured repeats each row gets after its
// warm-up run.
const rigJobRepeats = 5

// rigJobMallocNoise is how many more mallocs than its row's a repeat may
// make: the runtime adds one now and then.
const rigJobMallocNoise = 3

// rigJobByteNoise is how many more bytes a repeat may allocate than the
// leanest repeat of its row. The runtime moves a repeat by up to 144
// bytes; growth that is only amortized, like an append to a slice that
// outlives the run, adds kilobytes to some repeat.
const rigJobByteNoise = 1 << 10

// TestRigJobAllocBudget pins the rig's point and the per-packet path's
// allocation budget at once. One rig runs each row once to warm up, then
// rigJobRepeats more times with the same options. Every repeat must stay
// within the row's mallocs, which an allocation per packet, ACK or timeout
// exceeds by hundreds at least, and every repeat must allocate the same
// bytes, within noise: identical runs on a warm rig have nothing left to
// grow, so a repeat that allocates more shows amortized growth that a
// malloc count misses.
func TestRigJobAllocBudget(t *testing.T) {
	// One P, as testing.AllocsPerRun measures, and a collection before each
	// repeat, so none starts inside it: with two Ps, or with a collection
	// under way, the runtime now and then adds up to 10 mallocs and 5 KiB
	// to a repeat that runs the same code.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var rig Rig
	for _, job := range rigJobs() {
		t.Run(job.name, func(t *testing.T) {
			res := rig.Run(job.o)
			if st := res.FaultStats; st != nil && job.o.Faults.Classes[0] == fault.ClassLoss && st.InducedDropPkts < 200 {
				t.Fatalf("the loss row dropped %d packets a run, want hundreds", st.InducedDropPkts)
			}
			var mallocs, bytes [rigJobRepeats]uint64
			for i := range rigJobRepeats {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				rig.Run(job.o)
				runtime.ReadMemStats(&after)
				mallocs[i], bytes[i] = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
			}
			leanest := slices.Min(bytes[:])
			for i := range rigJobRepeats {
				if mallocs[i] > job.mallocs+rigJobMallocNoise {
					t.Errorf("repeat %d mallocs %d times, want at most %d (all repeats: %v)",
						i+1, mallocs[i], job.mallocs+rigJobMallocNoise, mallocs)
				}
				if bytes[i] > leanest+rigJobByteNoise {
					t.Errorf("repeat %d allocates %d bytes, %d more than the leanest repeat (all repeats: %v)",
						i+1, bytes[i], bytes[i]-leanest, bytes)
				}
			}
		})
	}
}
