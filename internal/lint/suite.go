package lint

import (
	"ccsvm/internal/lint/analysis"
)

// Analyzers returns the full ccsvm lint suite in the order cmd/ccsvm-lint
// runs it: directive hygiene first (so a malformed annotation is reported
// rather than silently ignored), then determinism.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Directives,
		Determinism,
	}
}
