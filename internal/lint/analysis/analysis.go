// Package analysis is a minimal, dependency-free core for writing static
// analyzers over typechecked Go packages. It mirrors the shape of
// golang.org/x/tools/go/analysis — Analyzer, Pass, Diagnostic, object facts —
// so the ccsvm analyzers could be ported to the real driver mechanically, but
// it is implemented entirely on the standard library because this repository
// vendors no third-party code.
//
// The driver contract is deliberately simple: a driver (cmd/ccsvm-lint, or the
// linttest harness) loads a set of packages in dependency order, builds one
// Pass per (analyzer, package) pair, and runs them. Facts exported on objects
// of one package are visible to later passes of the same analyzer over
// packages that import it, which is what lets the pool-ownership analyzer
// recognize pool endpoints declared in another package.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
)

// Analyzer describes one static check: a name for diagnostics and CLI
// selection, user-facing documentation, and the per-package Run function.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -only selections. It
	// must be a valid identifier.
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

// Fact is analyzer-private information attached to a types.Object, visible to
// later passes of the same analyzer over importing packages. Implementations
// must be pointer types; AFact is a marker method.
type Fact interface{ AFact() }

// Pass carries one analyzer's view of one package: its syntax, type
// information, and the reporting and fact APIs.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps positions in Files to source locations. It is shared by every
	// package of the load, so positions from facts remain meaningful.
	Fset *token.FileSet
	// Files is the package's parsed syntax (tests excluded).
	Files []*ast.File
	// Pkg is the typechecked package.
	Pkg *types.Package
	// TypesInfo holds the package's type and object resolution results.
	TypesInfo *types.Info
	// Report delivers a diagnostic to the driver.
	Report func(Diagnostic)

	facts *FactStore
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ExportObjectFact attaches fact to obj for later passes of this analyzer.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil {
		panic("analysis: ExportObjectFact on nil object")
	}
	p.facts.put(p.Analyzer, obj, fact)
}

// ImportObjectFact copies the fact previously exported on obj (by this
// analyzer, in this or an earlier pass) into fact, reporting whether one was
// found. fact must be a pointer of the same type as the exported fact.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if obj == nil {
		return false
	}
	return p.facts.get(p.Analyzer, obj, fact)
}

// FactStore holds the object facts of one driver run, keyed by analyzer and
// object. The driver owns it so facts survive across per-package passes.
type FactStore struct {
	m map[factKey]Fact
}

type factKey struct {
	analyzer *Analyzer
	obj      types.Object
	typ      reflect.Type
}

// NewFactStore returns an empty fact store.
func NewFactStore() *FactStore {
	return &FactStore{m: make(map[factKey]Fact)}
}

func (s *FactStore) put(a *Analyzer, obj types.Object, fact Fact) {
	t := reflect.TypeOf(fact)
	if t.Kind() != reflect.Pointer {
		panic(fmt.Sprintf("analysis: fact %T is not a pointer", fact))
	}
	s.m[factKey{a, obj, t}] = fact
}

func (s *FactStore) get(a *Analyzer, obj types.Object, fact Fact) bool {
	t := reflect.TypeOf(fact)
	if t.Kind() != reflect.Pointer {
		panic(fmt.Sprintf("analysis: fact %T is not a pointer", fact))
	}
	got, ok := s.m[factKey{a, obj, t}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(got).Elem())
	return true
}

// NewPass assembles a Pass; drivers use it so the fact store stays private.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package,
	info *types.Info, facts *FactStore, report func(Diagnostic)) *Pass {
	return &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Report:    report,
		facts:     facts,
	}
}
