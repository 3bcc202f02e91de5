package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	dcp "dctcpplus"
)

// The cases below drive the usage gate through the real flag variables, the
// way main does; each test restores the flags it touched. The helpers'
// own tables live in internal/cli.

func TestValidateFlags(t *testing.T) {
	defer func(r, w int) { *rounds, *warmup = r, w }(*rounds, *warmup)
	cases := []struct {
		name           string
		rounds, warmup int
		wantErr        bool
	}{
		{"defaults", 50, 10, false},
		{"paper scale", 1000, 10, false},
		{"single measured round", 1, 0, false},
		{"zero rounds", 0, 0, true},
		{"negative rounds", -1, 0, true},
		{"negative warmup", 50, -2, true},
		{"warmup equals rounds", 10, 10, true},
		{"warmup exceeds rounds", 10, 20, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			*rounds, *warmup = c.rounds, c.warmup
			if err := validate(); (err != nil) != c.wantErr {
				t.Errorf("validate(-rounds %d -warmup %d) = %v, wantErr=%v", c.rounds, c.warmup, err, c.wantErr)
			}
		})
	}
}

func TestValidateSweepFlags(t *testing.T) {
	defer func(j int) { *jobs = j }(*jobs)
	cases := []struct {
		name    string
		jobs    int
		wantErr bool
	}{
		{"defaults, no cache", 4, false},
		{"single worker", 1, false},
		{"zero jobs", 0, true},
		{"negative jobs", -3, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			*jobs = c.jobs
			if err := validate(); (err != nil) != c.wantErr {
				t.Errorf("validate(-jobs %d) = %v, wantErr=%v", c.jobs, err, c.wantErr)
			}
		})
	}
}

// TestValidateOutputFlags: an output file under a missing directory is a
// usage error before the run, not a failure after it.
func TestValidateOutputFlags(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "out.json")
	cases := []struct {
		name string
		flag *string
	}{
		{"-telemetry", telOut},
		{"-baseline", baseline},
		{"-cpuprofile", &prof.CPU},
		{"-memprofile", &prof.Mem},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func(v string) { *c.flag = v }(*c.flag)
			*c.flag = missing
			if err := validate(); err == nil || !strings.Contains(err.Error(), c.name+" "+missing) {
				t.Errorf("validate(%s %s) = %v, want a usage error naming the flag", c.name, missing, err)
			}
		})
	}
}

// TestSelectSections runs -only's selection over the real battery: each of
// its eleven entries is selectable by the name the docs use, a name stops at
// a word boundary, and a value that names no entry or several is an error
// listing every title.
func TestSelectSections(t *testing.T) {
	battery := dcp.Battery(dcp.Scale{Rounds: 2, Warmup: 1, Seed: 1})
	if len(battery) != 11 {
		t.Fatalf("Battery has %d entries, the table 11", len(battery))
	}
	all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		only string
		want []int // indices into battery; nil: a usage error
	}{
		{"", all},
		{"figure 1", []int{0}}, // neither Figure 13 nor Figure 14
		{"figure 2", []int{1}},
		{"figure 6", []int{2}},
		{"figure 7", []int{3}},
		{"figure 8", []int{4}},
		{"figure 9", []int{5}},
		{"figures 11", []int{6}},
		{"figure 13", []int{7}},
		{"figure 14", []int{8}},
		{"ablations", []int{9}},
		{"resilience", []int{10}},
		{"Figure 1:", []int{0}},
		{" FIGURE 14 , figure 2", []int{1, 8}}, // battery order, any case, blanks trimmed
		{"figure 9,figure 9", []int{5}},
		{" ", nil},
		{"figure 2,", nil},
		{"figure", nil},    // every Figure entry
		{"fig", nil},       // not at a word boundary
		{"figures 1", nil}, // likewise: Figures 11 + 12 goes on with a digit
		{"figure 3", nil},
		{"table i", nil},
	}
	for _, c := range cases {
		got, err := selectSections(battery, c.only)
		if c.want == nil {
			if err == nil {
				t.Errorf("-only %q selected %d entries, want a usage error", c.only, len(got))
				continue
			}
			for _, s := range battery {
				if !strings.Contains(err.Error(), "\n  "+s.Head().Title) {
					t.Errorf("-only %q: error does not list %q:\n%v", c.only, s.Head().Title, err)
				}
			}
			continue
		}
		if err != nil {
			t.Errorf("-only %q: %v", c.only, err)
			continue
		}
		var gotIdx []int
		for _, s := range got {
			for i := range battery {
				if battery[i] == s {
					gotIdx = append(gotIdx, i)
				}
			}
		}
		if !reflect.DeepEqual(gotIdx, c.want) {
			t.Errorf("-only %q selected entries %v, want %v", c.only, gotIdx, c.want)
		}
	}
}

// TestTruncationsNameThePoint: a point MaxSimTime stopped before its last
// round is named with its entry, protocol, N, seed, measured/asked rounds
// and sim time; a complete one is not named.
func TestTruncationsNameThePoint(t *testing.T) {
	o := dcp.DefaultIncastOptions(dcp.ProtoDCTCP, 8)
	o.Rounds, o.WarmupRounds = 6, 2
	done := dcp.RunIncast(o)
	o.MaxSimTime = 5 * dcp.Millisecond
	cut := dcp.RunIncast(o)
	lines := truncations("Figure X: t", 7, []dcp.IncastResult{done, cut})
	if len(lines) != 1 {
		t.Fatalf("truncations = %q, want one line for point 1", lines)
	}
	for _, want := range []string{"report: Figure X: t: point 1", "dctcp N=8 seed 7",
		fmt.Sprintf("%d of 4 measured rounds", cut.Rounds), "sim time", "MaxSimTime 5ms"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("line %q does not contain %q", lines[0], want)
		}
	}
}
