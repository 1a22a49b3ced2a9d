package lint

import (
	"go/token"
	"sort"

	"ccsvm/internal/lint/analysis"
	"ccsvm/internal/lint/load"
)

// Finding is one diagnostic produced by a suite run, resolved to a source
// position and tagged with the analyzer that produced it.
type Finding struct {
	// Analyzer names the originating analyzer.
	Analyzer string
	// Pos is the resolved source position.
	Pos token.Position
	// Message is the diagnostic text.
	Message string
}

// Run executes the given analyzers over the loaded packages. Findings are
// returned sorted by file, line and column.
func Run(fset *token.FileSet, pkgs []*load.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report: func(d analysis.Diagnostic) {
					findings = append(findings, Finding{
						Analyzer: a.Name,
						Pos:      fset.Position(d.Pos),
						Message:  d.Message,
					})
				},
			}
			if _, err := a.Run(pass); err != nil {
				return nil, err
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return findings, nil
}
