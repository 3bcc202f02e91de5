package exp

import (
	"strings"
	"testing"
)

// tinyScale keeps figure tests quick.
func tinyScale() Scale { return Scale{Rounds: 6, Warmup: 2, Seed: 1} }

func TestFigure1RunAndRender(t *testing.T) {
	f := NewFigure1()
	f.Scale = tinyScale()
	f.FlowCounts = []int{4, 8}
	f.Run()
	if len(f.Results) != 4 { // 2 protocols x 2 points
		t.Fatalf("results = %d", len(f.Results))
	}
	var sb strings.Builder
	f.Render(&sb)
	if !strings.Contains(sb.String(), "dctcp") || !strings.Contains(sb.String(), "tcp") {
		t.Error("render missing protocols")
	}
}

func TestFigure2Table1RunAndRender(t *testing.T) {
	f := NewFigure2Table1()
	f.Scale = tinyScale()
	f.FlowCounts = []int{8}
	f.Run()
	if len(f.Results) != 2 {
		t.Fatalf("results = %d", len(f.Results))
	}
	for _, r := range f.Results {
		if r.CwndHist == nil {
			t.Fatal("missing cwnd histogram")
		}
	}
	var sb strings.Builder
	f.Render(&sb)
	for _, col := range []string{"w=1", "cwndMin&ECE", "FLoss-TO"} {
		if !strings.Contains(sb.String(), col) {
			t.Errorf("render missing %q", col)
		}
	}
}

func TestFigure7VariantsConfigs(t *testing.T) {
	if p := NewFigure6().Protocols; p[0] != ProtoDCTCPPlusPartial {
		t.Error("Figure 6 spec wrong")
	}
	if NewFigure8().BaselineRTOMin == 0 {
		t.Error("Figure 8 spec missing RTO override")
	}
	f := NewFigure7()
	f.Scale = tinyScale()
	f.Protocols = []Protocol{ProtoDCTCPPlus}
	f.FlowCounts = []int{6}
	f.Run()
	if len(f.Results) != 1 || f.Results[0].Flows != 6 {
		t.Fatal("run shape wrong")
	}
}

func TestFigure8AppliesBaselineRTOOnlyToBaselines(t *testing.T) {
	f := NewFigure8()
	f.Scale = tinyScale()
	f.FlowCounts = []int{4}
	f.Protocols = []Protocol{ProtoDCTCPPlus, ProtoDCTCP}
	f.Run()
	// Indirect check: both complete; the semantics are covered by
	// inspecting options in Run (the DCTCP+ run keeps the 200ms default,
	// which manifests only under loss — here we simply require both rows).
	if len(f.Results) != 2 {
		t.Fatal("rows missing")
	}
}

func TestFigure9RunAndRender(t *testing.T) {
	f := NewFigure9()
	f.Scale = tinyScale()
	f.Protocols = []Protocol{ProtoDCTCP}
	f.FlowCounts = []int{8}
	f.Run()
	if len(f.Results) != 1 || len(f.Results[0].QueueSamples) == 0 {
		t.Fatal("no queue samples")
	}
	var sb strings.Builder
	f.Render(&sb)
	if !strings.Contains(sb.String(), "p99") {
		t.Error("render missing quantile columns")
	}
}

func TestFigure11_12RunAndRender(t *testing.T) {
	f := NewFigure11_12()
	f.Scale = tinyScale()
	f.Protocols = []Protocol{ProtoDCTCPPlus}
	f.FlowCounts = []int{4}
	f.Run()
	if len(f.Results) != 1 || f.Results[0].LongFlowMbps.Count == 0 {
		t.Fatal("no long-flow chunks")
	}
	var sb strings.Builder
	f.Render(&sb)
	if !strings.Contains(sb.String(), "longflow") {
		t.Error("render missing longflow column")
	}
}

func TestFigure13RunAndRender(t *testing.T) {
	f := NewFigure13()
	f.Queries = 15
	f.Background = 15
	f.Protocols = []Protocol{ProtoDCTCP}
	f.Run()
	if len(f.Results) != 1 || f.Results[0].Queries != 15 {
		t.Fatal("benchmark results wrong")
	}
	var sb strings.Builder
	f.Render(&sb)
	if !strings.Contains(sb.String(), "q.p99") {
		t.Error("render missing columns")
	}
}

func TestFigure14RunAndRender(t *testing.T) {
	f := NewFigure14()
	f.FlowCounts = []int{12}
	f.Options.BytesPerFlow = 256 << 10
	f.Options.Rounds = 3
	f.Scale.Rounds = 50 // a fixed-length trace: Scale must not stretch it
	f.Run()
	if len(f.Results) != 1 || len(f.Results[0].Series) != 3 {
		t.Fatalf("results = %+v", f.Results)
	}
	var sb strings.Builder
	f.Render(&sb)
	if !strings.Contains(sb.String(), "converged at round") {
		t.Error("render missing verdict")
	}
}

// TestFigureCatalogueShapes runs every incast constructor's grid at tiny
// scale and requires len(Protocols) x len(FlowCounts) results in the row
// order each figure's own Run produced before the six FigureN types became
// one: N-major for Fig. 9, protocol-major for the rest.
func TestFigureCatalogueShapes(t *testing.T) {
	cases := []struct {
		name       string
		build      func() *Figure
		flowsMajor bool
	}{
		{"Figure1", NewFigure1, false},
		{"Figure2Table1", NewFigure2Table1, false},
		{"Figure6", NewFigure6, false},
		{"Figure7", NewFigure7, false},
		{"Figure8", NewFigure8, false},
		{"Figure9", NewFigure9, true},
		{"Figure11_12", NewFigure11_12, false},
		{"Figure14", NewFigure14, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.build()
			f.Scale = tinyScale()
			f.Options.BytesPerFlow = 32 << 10
			f.FlowCounts = []int{4, 6}
			f.Run()

			type row struct {
				p Protocol
				n int
			}
			var want []row
			if tc.flowsMajor {
				for _, n := range f.FlowCounts {
					for _, p := range f.Protocols {
						want = append(want, row{p, n})
					}
				}
			} else {
				for _, p := range f.Protocols {
					for _, n := range f.FlowCounts {
						want = append(want, row{p, n})
					}
				}
			}
			if len(f.Results) != len(f.Protocols)*len(f.FlowCounts) {
				t.Fatalf("results = %d, want %d", len(f.Results), len(want))
			}
			for i, r := range f.Results {
				if (row{r.Protocol, r.Flows}) != want[i] {
					t.Errorf("row %d = %v N=%d, want %v N=%d", i, r.Protocol, r.Flows, want[i].p, want[i].n)
				}
			}
			var sb strings.Builder
			f.Render(&sb)
			if strings.Count(sb.String(), "\n") < len(want) {
				t.Errorf("render wrote fewer than %d rows:\n%s", len(want), sb.String())
			}
		})
	}
}
