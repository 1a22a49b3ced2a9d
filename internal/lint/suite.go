package lint

import (
	"ccsvm/internal/lint/analysis"
)

// Analyzers returns the full ccsvm lint suite in the order cmd/ccsvm-lint
// runs it: directive hygiene first (so a malformed annotation is reported
// rather than silently ignored by the enforcement passes), then the
// invariant analyzers — determinism, the flow-sensitive pool-ownership
// check, engine-context reachability and the allocation-free hot path.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Directives,
		Determinism,
		PoolOwnership,
		EngineCtx,
		AllocFree,
	}
}
