package main

import (
	"encoding/json"
	"os"

	"shortcutmining/internal/analysis"
)

// SARIF 2.1.0 subset — just enough structure for GitHub code scanning
// to ingest scm-vet findings as alerts.

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
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifMessage struct {
	Text string `json:"text"`
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
	StartColumn int `json:"startColumn,omitempty"`
}

// ruleDescriptions gives each check a one-line SARIF rule description.
var ruleDescriptions = map[string]string{
	analysis.CheckDeterminism:   "No wall-clock reads, global rand, or map iteration where outputs must be reproducible",
	analysis.CheckNoPanic:       "Library code returns errors instead of panicking",
	analysis.CheckAccounting:    "Traffic ledgers are written only by the memory models",
	analysis.CheckIgnoredErr:    "Error results must not be discarded",
	analysis.CheckLocking:       "Fields annotated `guarded by <mu>` are only touched under that mutex",
	analysis.CheckCtxFlow:       "Context-receiving functions must not start fresh contexts below the API boundary",
	analysis.CheckSnapshot:      "Serialized-schema structs keep exported, explicitly json-tagged, schema-stable fields",
	analysis.CheckDetTransitive: "Deterministic packages must not reach nondeterminism through the call graph",
	analysis.CheckImmutable:     "Fields of a built network are written only by the package that builds it",
	analysis.CheckSuppress:      "scmvet:ok annotations need a known check list and a reason",
}

// writeSARIF renders findings as one SARIF run with per-check rules.
func writeSARIF(path string, findings []analysis.Finding) error {
	ruleIndex := make(map[string]bool)
	var rules []sarifRule
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		id := "scmvet/" + f.Check
		if !ruleIndex[id] {
			ruleIndex[id] = true
			rules = append(rules, sarifRule{
				ID:               id,
				ShortDescription: sarifMessage{Text: ruleDescriptions[f.Check]},
			})
		}
		results = append(results, sarifResult{
			RuleID:  id,
			Level:   "error",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: f.File},
					Region:           sarifRegion{StartLine: f.Line, StartColumn: f.Col},
				},
			}},
		})
	}
	if rules == nil {
		rules = []sarifRule{}
	}
	log := sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "scm-vet", Rules: rules}},
			Results: results,
		}},
	}
	data, err := json.MarshalIndent(log, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
