package lint

import (
	"ccsvm/internal/lint/analysis"
)

// Directives validates the //ccsvm: annotation vocabulary itself: unknown
// directive names, arguments, and directives in the wrong place (a function,
// a type, a value, a struct field) are errors. The determinism analyzer
// ignores malformed directives entirely, so without this check a typo like
// //ccsvm:order-invariant would silently fail to apply; with it, the typo
// fails the build.
var Directives = &analysis.Analyzer{
	Name: "ccsvmdirective",
	Doc:  "report unknown, malformed or misplaced //ccsvm: directives",
	Run:  runDirectives,
}

func runDirectives(pass *analysis.Pass) (any, error) {
	ann := ParseAnnotations(pass.Fset, pass.Files)
	for _, e := range ann.Errors {
		pass.Reportf(e.Pos, "%s", e.Msg)
	}
	return nil, nil
}
