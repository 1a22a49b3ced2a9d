// Package analysis is a minimal, dependency-free core for writing static
// analyzers over typechecked Go packages. It mirrors the shape of
// golang.org/x/tools/go/analysis — Analyzer, Pass, Diagnostic — so the ccsvm
// analyzers could be ported to the real driver mechanically, but it is
// implemented entirely on the standard library because this repository
// vendors no third-party code.
//
// The driver contract is deliberately simple: a driver (cmd/ccsvm-lint, or the
// linttest harness) loads a set of packages in dependency order, builds one
// Pass per (analyzer, package) pair, and runs them.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check: a name for diagnostics and CLI
// selection, user-facing documentation, and the per-package Run function.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in cmd/ccsvm-lint -list.
	// It must be a valid identifier.
	Name string
	// Doc is the user-facing description, printed by cmd/ccsvm-lint -help.
	Doc string
	// Run performs the check on one package. Diagnostics are delivered
	// through the Pass; the result value is unused by the ccsvm drivers but
	// kept for x/tools API parity.
	Run func(*Pass) (any, error)
}

// Diagnostic is one finding, anchored at a source position.
type Diagnostic struct {
	// Pos is where the finding is reported.
	Pos token.Pos
	// Message is the human-readable finding text.
	Message string
}

// Pass carries one analyzer's view of one package: its syntax, type
// information, and the reporting API.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps positions in Files to source locations. It is shared by every
	// package of the load.
	Fset *token.FileSet
	// Files is the package's parsed syntax (tests excluded).
	Files []*ast.File
	// Pkg is the typechecked package.
	Pkg *types.Package
	// TypesInfo holds the package's type and object resolution results.
	TypesInfo *types.Info
	// Report delivers a diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
