package analysis

// VET_report.json: the machine-readable twin of flickervet's diagnostics,
// uploaded by CI next to TCB_report.json. The schema is deliberately flat:
//
//	{
//	  "module": "flicker",
//	  "analyzers": [
//	    {"name": "secretflow", "doc": "...", "findings": 0, "suppressed": 1},
//	    ...
//	  ],
//	  "findings":   [ {analyzer, file, line, col, message, sink_chain?} ],
//	  "suppressed": [ {analyzer, file, line, col, message, sink_chain?, reason} ]
//	}
//
// "analyzers" lists every analyzer that ran, including clean ones, so a
// zero is an assertion ("secretflow ran and found nothing"), not an
// absence. "findings" must be empty for CI to pass; "suppressed" carries
// each //flickervet:allow with its mandatory reason, so the waiver
// inventory ships with every build.

import (
	"encoding/json"
	"path/filepath"
)

// VetReport is the marshaled form of one flickervet run.
type VetReport struct {
	Module    string           `json:"module"`
	Analyzers []VetAnalyzer    `json:"analyzers"`
	Findings  []VetFinding     `json:"findings"`
	Suppress  []VetSuppression `json:"suppressed"`
}

// VetAnalyzer is one analyzer's tally for the run.
type VetAnalyzer struct {
	Name       string `json:"name"`
	Doc        string `json:"doc"`
	Findings   int    `json:"findings"`
	Suppressed int    `json:"suppressed"`
}

// VetFinding is one diagnostic, positioned and chained.
type VetFinding struct {
	Analyzer string   `json:"analyzer"`
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Message  string   `json:"message"`
	Chain    []string `json:"sink_chain,omitempty"`
}

// VetSuppression is a finding silenced by an allow directive.
type VetSuppression struct {
	VetFinding
	Reason string `json:"reason"`
}

// JSON marshals the report, indented, with a trailing newline.
func (r *VetReport) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// buildReport assembles the report from a finished run. File paths are
// relative to the module root when possible, so the artifact is stable
// across checkouts.
func buildReport(module string, analyzers []*Analyzer, diags []Diagnostic, suppressed []SuppressedDiagnostic) *VetReport {
	rep := &VetReport{
		Module:   module,
		Findings: []VetFinding{},
		Suppress: []VetSuppression{},
	}
	counts := make(map[string]*VetAnalyzer, len(analyzers))
	for _, a := range analyzers {
		va := &VetAnalyzer{Name: a.Name, Doc: a.Doc}
		counts[a.Name] = va
		rep.Analyzers = append(rep.Analyzers, VetAnalyzer{}) // placeholder, filled below
	}
	for _, d := range diags {
		rep.Findings = append(rep.Findings, vetFinding(d))
		if c := counts[d.Analyzer]; c != nil {
			c.Findings++
		}
	}
	for _, s := range suppressed {
		rep.Suppress = append(rep.Suppress, VetSuppression{VetFinding: vetFinding(s.Diagnostic), Reason: s.Reason})
		if c := counts[s.Analyzer]; c != nil {
			c.Suppressed++
		}
	}
	for i, a := range analyzers {
		rep.Analyzers[i] = *counts[a.Name]
	}
	return rep
}

func vetFinding(d Diagnostic) VetFinding {
	return VetFinding{
		Analyzer: d.Analyzer,
		File:     filepath.ToSlash(d.Pos.Filename),
		Line:     d.Pos.Line,
		Col:      d.Pos.Column,
		Message:  d.Message,
		Chain:    d.Chain,
	}
}
