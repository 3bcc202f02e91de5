package lint

import (
	"encoding/json"
	"testing"
)

// TestSARIF checks the emitted log against the subset of SARIF 2.1.0 that
// CI code-scanning ingestion requires: version, tool name, one rule per
// analyzer (plus the directive pseudo-rule), and per-result locations with
// forward-slash URIs.
func TestSARIF(t *testing.T) {
	diags := []Diagnostic{{
		File:     "internal/tcp/sender.go",
		Line:     42,
		Col:      7,
		Analyzer: "unitsafety",
		Message:  "arithmetic mixes units: left operand is bytes, right operand is packets",
	}}
	out, err := SARIF(diags, All())
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out, &log); err != nil {
		t.Fatal(err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "simlint" {
		t.Errorf("driver name = %q, want simlint", run.Tool.Driver.Name)
	}
	if want := len(All()) + 2; len(run.Tool.Driver.Rules) != want {
		t.Errorf("rules = %d, want %d (analyzers + directive + staleallow)", len(run.Tool.Driver.Rules), want)
	}
	if len(run.Results) != 1 {
		t.Fatalf("results = %d, want 1", len(run.Results))
	}
	res := run.Results[0]
	if res.RuleID != "unitsafety" {
		t.Errorf("ruleId = %q, want unitsafety", res.RuleID)
	}
	loc := res.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/tcp/sender.go" {
		t.Errorf("uri = %q", loc.ArtifactLocation.URI)
	}
	if loc.Region.StartLine != 42 || loc.Region.StartColumn != 7 {
		t.Errorf("region = %d:%d, want 42:7", loc.Region.StartLine, loc.Region.StartColumn)
	}
}

// TestSARIFClean pins the clean-run shape: results serializes as an empty
// array, never null, so ingestion does not need a special case.
func TestSARIFClean(t *testing.T) {
	out, err := SARIF(nil, All())
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Runs []map[string]json.RawMessage `json:"runs"`
	}
	if err := json.Unmarshal(out, &log); err != nil {
		t.Fatal(err)
	}
	raw, ok := log.Runs[0]["results"]
	if !ok {
		t.Fatal("results key absent from clean run")
	}
	if string(raw) != "[]" {
		t.Errorf("clean results = %s, want []", raw)
	}
}
