package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"

	"ccsvm/internal/lint/analysis"
)

func sampleFindings() []Finding {
	return []Finding{
		{
			Analyzer: "allocfree",
			Pos:      token.Position{Filename: "/repo/internal/sim/engine.go", Line: 10, Column: 2},
			Message:  "capturing closure",
		},
		{
			Analyzer: "determinism",
			Pos:      token.Position{Filename: "/elsewhere/x.go", Line: 3, Column: 1},
			Message:  "reads the wall clock",
		},
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, sampleFindings(), "/repo"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Findings []struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Message  string `json:"message"`
		} `json:"findings"`
		Count int `json:"count"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.Count != 2 || len(doc.Findings) != 2 {
		t.Fatalf("count = %d, len = %d, want 2, 2", doc.Count, len(doc.Findings))
	}
	// A path under the root is relativized; one outside stays absolute.
	if got := doc.Findings[0].File; got != "internal/sim/engine.go" {
		t.Errorf("in-root path = %q, want internal/sim/engine.go", got)
	}
	if got := doc.Findings[1].File; got != "/elsewhere/x.go" {
		t.Errorf("out-of-root path = %q, want /elsewhere/x.go", got)
	}
	if doc.Findings[0].Analyzer != "allocfree" || doc.Findings[0].Line != 10 || doc.Findings[0].Column != 2 {
		t.Errorf("finding fields mangled: %+v", doc.Findings[0])
	}
}

func TestWriteJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil, ""); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Findings []any `json:"findings"`
		Count    int   `json:"count"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Count != 0 || doc.Findings == nil {
		t.Fatalf("empty report must have count 0 and a present findings array; got %s", buf.String())
	}
}

func TestWriteSARIF(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, sampleFindings(), Analyzers(), "/repo"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema  string `json:"$schema"`
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
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
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
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.Version != "2.1.0" || !strings.Contains(doc.Schema, "sarif-2.1.0") {
		t.Fatalf("version/schema = %q / %q", doc.Version, doc.Schema)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(doc.Runs))
	}
	run := doc.Runs[0]
	if run.Tool.Driver.Name != "ccsvm-lint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != len(Analyzers()) {
		t.Errorf("rules = %d, want one per analyzer (%d)", len(run.Tool.Driver.Rules), len(Analyzers()))
	}
	if len(run.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(run.Results))
	}
	for _, r := range run.Results {
		// ruleIndex must point at the rule named by ruleId — code-scanning
		// consumers resolve metadata through the index, not the ID.
		if got := run.Tool.Driver.Rules[r.RuleIndex].ID; got != r.RuleID {
			t.Errorf("ruleIndex %d resolves to %q, want %q", r.RuleIndex, got, r.RuleID)
		}
		if r.Level != "error" {
			t.Errorf("level = %q, want error", r.Level)
		}
		if len(r.Locations) != 1 {
			t.Fatalf("locations = %d, want 1", len(r.Locations))
		}
	}
	if got := run.Results[0].Locations[0].PhysicalLocation.ArtifactLocation.URI; got != "internal/sim/engine.go" {
		t.Errorf("uri = %q, want internal/sim/engine.go", got)
	}
	if got := run.Results[0].Locations[0].PhysicalLocation.Region.StartLine; got != 10 {
		t.Errorf("startLine = %d, want 10", got)
	}
}

func TestWriteSARIFUnknownAnalyzer(t *testing.T) {
	var buf bytes.Buffer
	findings := []Finding{{Analyzer: "nosuch", Message: "x"}}
	if err := WriteSARIF(&buf, findings, []*analysis.Analyzer{AllocFree}, ""); err == nil {
		t.Fatal("want error for a finding from an analyzer missing from the rule table")
	}
}
