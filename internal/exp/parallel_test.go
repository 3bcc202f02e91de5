package exp

import (
	"testing"
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
