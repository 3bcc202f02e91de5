package exp

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"dctcpplus/internal/core"
	"dctcpplus/internal/fault"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/telemetry"
)

// rigSequence is a heterogeneous batch for one rig: every protocol at N
// from 1 to 200, each fault class, the oracle, telemetry, cwnd probes and
// queue sampling, background long flows, kept rounds, mirrored workers, a
// flow-id permutation, the HULL testbed (a different topology: the rig
// rebuilds, and rebuilds again after it) and non-default DCTCP+ enhancement parameters.
// Consecutive points differ in seed, so no two runs share a workload stream.
func rigSequence() []IncastOptions {
	base := DefaultIncastOptions(ProtoDCTCPPlus, 40)
	base.Rounds, base.WarmupRounds = 4, 1
	base.RTOMin = 10 * sim.Millisecond
	var seq []IncastOptions
	add := func(o IncastOptions) {
		o.Testbed.Seed = uint64(len(seq) + 1)
		seq = append(seq, o)
	}
	for i, p := range Protocols {
		o := base
		o.Protocol, o.Flows = p, []int{1, 200, 7, 120, 40, 80, 13, 60}[i]
		add(o)
	}
	for _, c := range fault.AllClasses() {
		o := base
		o.Protocol = ProtoDCTCP
		gen := fault.DefaultGenConfig(5)
		gen.Classes = []fault.Class{c}
		gen.Start, gen.Window, gen.Dur = sim.Time(2*sim.Millisecond), 20*sim.Millisecond, 3*sim.Millisecond
		o.Faults = &gen
		add(o)
		if c == fault.AllClasses()[0] {
			// A mirrored run right before a faulted one: fault plans index
			// the workers, so placement left mirrored would move the plan.
			o.Faults, o.MirrorWorkers = nil, true
			add(o)
		}
	}
	o := base
	o.Oracle, o.KeepRounds = true, true
	add(o)
	o = base
	o.Telemetry = telemetry.NewRegistry() // a marker: each run gets its own
	o.CollectCwnd, o.QueueSampleEvery = true, 100*sim.Microsecond
	add(o)
	o = base
	o.BackgroundFlows, o.ChunkBytes = 2, 256<<10
	add(o)
	o = base
	o.FlowIDs = make([]packet.FlowID, o.Flows)
	for i := range o.FlowIDs {
		o.FlowIDs[i] = packet.FlowID((i*7)%o.Flows + 500)
	}
	add(o)
	o = base
	o.Testbed = HULLTestbed()
	o.Protocol = ProtoDCTCP
	add(o)
	o = base
	ecfg := core.DefaultConfig()
	ecfg.BackoffUnit, ecfg.DivisorFactor = 400*sim.Microsecond, 4
	o.Enhancement = &ecfg
	o.Flows = 160
	add(o)
	return seq
}

// runObserved runs o and returns the result with the registry snapshot of
// the run when it carries telemetry (a fresh registry per run).
func runObserved(t *testing.T, run func(IncastOptions) IncastResult, o IncastOptions) (IncastResult, []byte) {
	t.Helper()
	if o.Telemetry == nil {
		return run(o), nil
	}
	o.Telemetry = telemetry.NewRegistry()
	res := run(o)
	snap, err := json.Marshal(o.Telemetry.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return res, snap
}

// TestRigReuseEqualsFresh: a run's result must not depend on what ran on
// its rig before. One rig runs the heterogeneous sequence forward and then
// reversed; every result — and every telemetry snapshot — must equal a
// fresh RunIncast's of the same options.
func TestRigReuseEqualsFresh(t *testing.T) {
	seq := rigSequence()
	type outcome struct {
		res  IncastResult
		snap []byte
	}
	fresh := make([]outcome, len(seq))
	for i, o := range seq {
		fresh[i].res, fresh[i].snap = runObserved(t, RunIncast, o)
	}
	var rig Rig
	forward := make([]int, len(seq))
	for i := range forward {
		forward[i] = i
	}
	reversed := slices.Clone(forward)
	slices.Reverse(reversed)
	for pass, order := range [][]int{forward, reversed} {
		for _, i := range order {
			res, snap := runObserved(t, rig.Run, seq[i])
			if !reflect.DeepEqual(res, fresh[i].res) || !bytes.Equal(snap, fresh[i].snap) {
				t.Errorf("pass %d, point %d (%v N=%d): the rig's run differs from a fresh one:\nrig   %+v\nfresh %+v",
					pass, i, seq[i].Protocol, seq[i].Flows, res, fresh[i].res)
			}
		}
	}
}

// TestRigResetReturnsEveryPacket: a rig's reset hands every packet of the
// halted run back to the pool — the ones queued at ports, and the ones
// riding a link, whose delivery event the scheduler reset discards — so a
// reused rig mints none to replace them. After each run of the
// heterogeneous sequence, the reset leaves the freelist holding every
// packet the pool has minted.
func TestRigResetReturnsEveryPacket(t *testing.T) {
	var rig Rig
	for i, o := range rigSequence() {
		rig.Run(o)
		rig.prepare(o.Testbed)
		if pool := rig.tt.Pool(); pool.Minted() != pool.FreeLen() {
			t.Errorf("point %d (%v N=%d): after the reset the freelist holds %d of the %d packets minted",
				i, o.Protocol, o.Flows, pool.FreeLen(), pool.Minted())
		}
	}
}
