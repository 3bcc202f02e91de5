package exp

import (
	"fmt"
	"strings"
	"testing"

	"dctcpplus/internal/core"
	"dctcpplus/internal/sim"
)

// tinyScale keeps figure tests quick.
func tinyScale() Scale { return Scale{Rounds: 6, Warmup: 2, Seed: 1} }

// shrink cuts every point's fan-in and response size so a catalogue entry
// runs in milliseconds; point count, order, protocols and every attached
// instrument stay, and larger N stays larger.
func shrink(pts []IncastOptions) {
	for i := range pts {
		pts[i].Flows = 2 + pts[i].Flows/40
		pts[i].BytesPerFlow = 32 << 10
	}
}

// shape spells a point list compactly — "tcp:1,5,10 dctcp:1,5,10" — one
// group per run of consecutive points sharing a protocol.
func shape(pts []IncastOptions) string {
	var sb strings.Builder
	for i, pt := range pts {
		switch {
		case i > 0 && pts[i-1].Protocol == pt.Protocol:
			fmt.Fprintf(&sb, ",%d", pt.Flows)
		case i > 0:
			sb.WriteByte(' ')
			fallthrough
		default:
			fmt.Fprintf(&sb, "%v:%d", pt.Protocol, pt.Flows)
		}
	}
	return sb.String()
}

func render(s Section) string {
	var sb strings.Builder
	s.Render(&sb)
	return sb.String()
}

// TestFigureCatalogueShapes is the one table over Battery: every entry's
// point list is pinned row for row (count and order: N-major for Fig. 9,
// protocol-major for the other grids, the ablation parts back to back),
// then the entry runs shrunk and must return one result per point in point
// order, render at least one line per row with its own columns, and
// reproduce its rendering byte for byte on a second Run.
func TestFigureCatalogueShapes(t *testing.T) {
	cases := []struct {
		name  string
		shape string
		cols  []string
	}{
		{"Figure1", "tcp:1,5,10,20,30,40,60,80,100 dctcp:1,5,10,20,30,40,60,80,100",
			[]string{"goodput", "fct.p95"}},
		{"Figure2Table1", "dctcp:10,20,40,60 tcp:10,20,40,60",
			[]string{"w=1", "cwndMin&ECE", "FLoss-TO"}},
		{"Figure6", "dctcp+partial:20,60,120,200 dctcp+:20,60,120,200", []string{"goodput"}},
		{"Figure7", "dctcp+:20,60,120,200 dctcp:20,60,120,200 tcp:20,60,120,200", []string{"goodput"}},
		{"Figure8", "dctcp+:20,60,120,200 dctcp:20,60,120,200 tcp:20,60,120,200", []string{"goodput"}},
		{"Figure9", "dctcp+:30 dctcp:30 tcp:30 dctcp+:50 dctcp:50 tcp:50 dctcp+:80 dctcp:80 tcp:80",
			[]string{"p99", "max"}},
		{"Figure11_12", "dctcp+:20,60,120 dctcp:20,60,120 tcp:20,60,120", []string{"longflow"}},
		{"Figure13", "", []string{"q.p99", "bg.p99"}},
		{"Figure14", "dctcp+:50", []string{"converged at round"}},
		{"Ablations", "dctcp+:120,120,120,120,120,120,120,120,160 dctcp+partial:160 " +
			"dctcp:80 dctcp-min1:80,120 reno+:80 tcp:80 d2tcp:120 d2tcp+:120 dctcp:40,40",
			[]string{"unit=800µs", "divisor=2 ", "fct.p95", "HULL composition at N=3:"}},
		{"Resilience", "dctcp:150 dctcp+:150", []string{"dctcp+.goodput", "none", "blackout", "stall"}},
	}
	battery := Battery(tinyScale())
	if len(battery) != len(cases) {
		t.Fatalf("Battery has %d entries, the table %d", len(battery), len(cases))
	}
	for i, tc := range cases {
		s := battery[i]
		t.Run(tc.name, func(t *testing.T) {
			if h := s.Head(); h.Title == "" || h.Expectation == "" {
				t.Errorf("heading incomplete: %+v", h)
			}
			var pts []IncastOptions
			results, lines := 0, 0 // lines: data rows, one per point or table row
			switch s := s.(type) {
			case *Figure:
				pts, results, lines = s.Points, len(s.Points), len(s.Points)
			case *Resilience:
				pts, lines = s.Points, 1+len(s.Classes)
				results = lines * len(s.Points)
			case *Figure13:
				s.Queries, s.Background = 15, 15
				lines = len(s.Protocols)
			}
			if got := shape(pts); got != tc.shape {
				t.Fatalf("points = %s\nwant     %s", got, tc.shape)
			}
			shrink(pts)
			s.Run()
			got := s.Incast()
			if len(got) != results {
				t.Fatalf("results = %d, want %d", len(got), results)
			}
			for i, r := range got {
				if pt := pts[i%len(pts)]; r.Protocol != pt.Protocol || r.Flows != pt.Flows {
					t.Errorf("result %d = %v N=%d, want %v N=%d", i, r.Protocol, r.Flows, pt.Protocol, pt.Flows)
				}
			}
			out := render(s)
			if strings.Count(out, "\n") < lines {
				t.Errorf("render wrote fewer than %d lines:\n%s", lines, out)
			}
			for _, col := range tc.cols {
				if !strings.Contains(out, col) {
					t.Errorf("render missing %q:\n%s", col, out)
				}
			}
			s.Run()
			if again := render(s); again != out {
				t.Errorf("second Run rendered differently:\n%s\nvs\n%s", out, again)
			}
		})
	}
}

func TestFigure2Table1RunAndRender(t *testing.T) {
	f := NewFigure2Table1(tinyScale())
	f.Points = Grid(f.Points[0], []Protocol{ProtoDCTCP, ProtoTCP}, []int{8})
	f.Run()
	if len(f.Results) != 2 {
		t.Fatalf("results = %d", len(f.Results))
	}
	for _, r := range f.Results {
		if r.CwndHist == nil {
			t.Fatal("missing cwnd histogram")
		}
	}
}

func TestFigure7VariantsConfigs(t *testing.T) {
	f6, f7 := NewFigure6(tinyScale()), NewFigure7(tinyScale())
	if f6.Points[0].Protocol != ProtoDCTCPPlusPartial || len(f6.Points) != 8 {
		t.Error("Figure 6 spec wrong")
	}
	for _, pt := range append(f6.Points, f7.Points...) {
		if pt.RTOMin != 200*sim.Millisecond || pt.Rounds != 6 || pt.WarmupRounds != 2 {
			t.Errorf("%v N=%d: RTOmin %v rounds %d/%d", pt.Protocol, pt.Flows, pt.RTOMin, pt.Rounds, pt.WarmupRounds)
		}
	}
	f7.Points = Grid(f7.Points[0], []Protocol{ProtoDCTCPPlus}, []int{6})
	f7.Run()
	if len(f7.Results) != 1 || f7.Results[0].Flows != 6 {
		t.Fatal("run shape wrong")
	}
}

// TestFigure8AppliesBaselineRTOOnlyToBaselines reads the point list: the
// DCTCP+ variants keep the 200ms default, every baseline runs at 10ms. A
// caller that re-grids per protocol from the entry's own points keeps each
// protocol's RTOmin.
func TestFigure8AppliesBaselineRTOOnlyToBaselines(t *testing.T) {
	want := func(p Protocol) sim.Duration {
		if p == ProtoDCTCPPlus || p == ProtoDCTCPPlusPartial {
			return 200 * sim.Millisecond
		}
		return 10 * sim.Millisecond
	}
	f := NewFigure8(tinyScale())
	var regrid []IncastOptions
	for i, pt := range f.Points {
		if pt.RTOMin != want(pt.Protocol) {
			t.Errorf("%v N=%d: RTOmin %v, want %v", pt.Protocol, pt.Flows, pt.RTOMin, want(pt.Protocol))
		}
		if i == 0 || f.Points[i-1].Protocol != pt.Protocol {
			regrid = append(regrid, Grid(pt, []Protocol{pt.Protocol}, []int{4})...)
		}
	}
	f.Points = regrid
	f.Run()
	if len(f.Results) != 3 {
		t.Fatalf("rows = %d, want 3", len(f.Results))
	}
	for i, pt := range f.Points {
		if pt.RTOMin != want(pt.Protocol) || f.Results[i].Protocol != pt.Protocol {
			t.Errorf("re-gridded row %d: %v RTOmin %v", i, pt.Protocol, pt.RTOMin)
		}
	}
}

func TestFigure9RunAndRender(t *testing.T) {
	f := NewFigure9(tinyScale())
	f.Points = Grid(f.Points[0], []Protocol{ProtoDCTCP}, []int{8})
	f.Run()
	if len(f.Results) != 1 || f.Results[0].Queue.Len() == 0 {
		t.Fatal("no queue samples")
	}
}

func TestFigure11_12RunAndRender(t *testing.T) {
	f := NewFigure11_12(tinyScale())
	f.Points = Grid(f.Points[0], []Protocol{ProtoDCTCPPlus}, []int{4})
	f.Run()
	if len(f.Results) != 1 || f.Results[0].LongFlowMbps.Count == 0 || len(f.Results[0].PerFlowMeanMbps) != 2 {
		t.Fatal("no long-flow chunks")
	}
}

func TestFigure13RunAndRender(t *testing.T) {
	f := NewFigure13(tinyScale())
	f.Queries = 15
	f.Background = 15
	f.Protocols = []Protocol{ProtoDCTCP}
	f.Run()
	if len(f.Results) != 1 || f.Results[0].Queries != 15 {
		t.Fatal("benchmark results wrong")
	}
	if f.Incast() != nil {
		t.Error("Figure 13 reports incast results")
	}
}

// TestFigure14RunAndRender: a fixed-length trace — the scale must not
// stretch it, and the whole series (warmup included) is kept. The queue
// chart is scaled to the buffer of the point as run, read at render time,
// and has one row per 50ms bin up to the last sample.
func TestFigure14RunAndRender(t *testing.T) {
	f := NewFigure14(Scale{Rounds: 50, Warmup: 10, Seed: 1})
	pt := &f.Points[0]
	if pt.Rounds != 8 || pt.WarmupRounds != 1 {
		t.Fatalf("rounds = %d/%d, want the pinned 8/1", pt.Rounds, pt.WarmupRounds)
	}
	pt.Flows, pt.BytesPerFlow, pt.Rounds = 12, 256<<10, 3
	pt.Testbed.Topo.SwitchPort.BufferBytes = 256 << 10
	f.Run()
	if len(f.Results) != 1 || len(f.Results[0].Series) != 3 {
		t.Fatalf("results = %+v", f.Results)
	}
	out := render(f)
	if !strings.Contains(out, "(max occupancy per 50ms bin; buffer limit 262144 bytes)\n") {
		t.Errorf("chart not scaled to the point's 256 KiB buffer:\n%s", out)
	}
	q := f.Results[0].Queue
	last, _ := q.Sample(q.Len() - 1)
	if rows, want := strings.Count(out, "\nt="), int(sim.Duration(last)/convergenceBin)+1; rows != want {
		t.Errorf("chart has %d bin rows, want %d for samples up to %v", rows, want, last)
	}
}

// TestAblationsKeepTheCalibratedDefault: the unit and divisor entries each
// contain core.DefaultConfig's value, and that row is the stock DCTCP+ run
// — so the "800µs / 2 is the calibrated default" row cannot drift from the
// code.
func TestAblationsKeepTheCalibratedDefault(t *testing.T) {
	def := core.DefaultConfig()
	unitRow, divRow := -1, -1
	for i, u := range backoffUnits {
		if u == def.BackoffUnit {
			unitRow = i
		}
	}
	for i, d := range divisors {
		if d == def.DivisorFactor {
			divRow = i
		}
	}
	if unitRow < 0 || divRow < 0 {
		t.Fatalf("default unit %v / divisor %v missing from %v / %v",
			def.BackoffUnit, def.DivisorFactor, backoffUnits, divisors)
	}
	stock := tinyScale().point(ProtoDCTCPPlus, ablationFlows)
	pts := []IncastOptions{stock}
	for _, tc := range []struct {
		name      string
		f         *Figure
		vals, row int
	}{
		{"unit", NewBackoffUnitAblation(tinyScale()), len(backoffUnits), unitRow},
		{"divisor", NewDivisorAblation(tinyScale()), len(divisors), divRow},
	} {
		if len(tc.f.Points) != tc.vals {
			t.Fatalf("%s: %d points for %d values", tc.name, len(tc.f.Points), tc.vals)
		}
		pts = append(pts, tc.f.Points[tc.row], tc.f.Points[(tc.row+1)%tc.vals])
	}
	for i := range pts {
		pts[i].Flows = 60 // small, but deep enough that the mechanism engages
	}
	rs := RunMany(pts)
	for _, i := range []int{1, 3} {
		if rs[i].GoodputMbps != rs[0].GoodputMbps || rs[i].FCTms != rs[0].FCTms {
			t.Errorf("default row %d differs from the stock DCTCP+ run: %+v vs %+v", i, rs[i].FCTms, rs[0].FCTms)
		}
		if rs[i+1].FCTms == rs[0].FCTms {
			t.Errorf("non-default row %d equals the stock run; the factory ignores the parameter", i+1)
		}
	}
}
