package lint

import (
	"encoding/json"
	"path/filepath"
)

// SARIF renders diagnostics as a SARIF 2.1.0 log (the minimal subset CI
// code-scanning uploads require): one run, the simlint tool with a rule per
// analyzer, and one result per diagnostic. File paths are emitted with
// forward slashes, as SARIF URIs require; Results is always non-nil so a
// clean run serializes as an empty array rather than null.
func SARIF(diags []Diagnostic, analyzers []*Analyzer) ([]byte, error) {
	rules := make([]sarifRule, 0, len(analyzers)+1)
	for _, a := range analyzers {
		rules = append(rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifText{Text: a.Doc},
		})
	}
	// The directive pseudo-analyzer reports malformed //lint:allow comments,
	// and staleallow (the whole-module audit) reports well-formed ones that
	// no longer suppress any diagnostic.
	rules = append(rules, sarifRule{
		ID:               "directive",
		ShortDescription: sarifText{Text: "malformed //lint:allow directive"},
	})
	rules = append(rules, sarifRule{
		ID:               "staleallow",
		ShortDescription: sarifText{Text: "//lint:allow directive that suppresses no diagnostic"},
	})

	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "warning",
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(d.File)},
					Region: sarifRegion{
						StartLine:   d.Line,
						StartColumn: d.Col,
					},
				},
			}},
		})
	}

	log := sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool: sarifTool{Driver: sarifDriver{
				Name:           "simlint",
				InformationURI: "https://github.com/dctcpplus",
				Rules:          rules,
			}},
			Results: results,
		}},
	}
	return json.MarshalIndent(log, "", "  ")
}

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}
