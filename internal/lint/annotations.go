package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"maps"
	"slices"
	"strings"
)

// The //ccsvm: directive vocabulary. Directives are machine-readable comments
// (in the style of //go:build) that declare which invariant a piece of code
// participates in; the determinism analyzer enforces them. The vocabulary is
// documented for contributors in ARCHITECTURE.md ("Static enforcement").
const (
	// DirDeterministic marks a package (in its package doc comment) as part
	// of the simulated machine: the determinism analyzer forbids wall-clock
	// reads, global math/rand, goroutine launches and order-sensitive map
	// iteration inside it.
	DirDeterministic = "deterministic"
	// DirOrderInvariant suppresses the map-iteration determinism check for
	// the range statement on the same or next line; it is a reviewed claim
	// that the loop body's effects commute (or are sorted afterwards).
	DirOrderInvariant = "orderinvariant"
)

// directivePrefix introduces every ccsvm directive comment.
const directivePrefix = "//ccsvm:"

// Directive is one parsed //ccsvm: annotation.
type Directive struct {
	// Kind is one of the Dir* constants.
	Kind string
	// Pos locates the directive comment.
	Pos token.Pos
}

// AnnotationError is a malformed or misplaced directive.
type AnnotationError struct {
	// Pos locates the offending comment.
	Pos token.Pos
	// Msg describes the problem.
	Msg string
}

// Annotations is the parsed directive set of one package.
type Annotations struct {
	// Pkg holds package-level directives (deterministic).
	Pkg []Directive
	// orderInvariant records the file lines carrying an orderinvariant
	// directive, keyed by filename, then line.
	orderInvariant map[string]map[int]bool
	// Errors collects malformed and misplaced directives; the ccsvmdirective
	// analyzer reports them.
	Errors []AnnotationError
}

// PkgHas reports whether the package carries a package-level directive.
func (a *Annotations) PkgHas(kind string) bool {
	for _, d := range a.Pkg {
		if d.Kind == kind {
			return true
		}
	}
	return false
}

// OrderInvariantAt reports whether an orderinvariant directive is attached to
// the statement at pos: on the same line (trailing comment) or the line
// directly above it.
func (a *Annotations) OrderInvariantAt(fset *token.FileSet, pos token.Pos) bool {
	p := fset.Position(pos)
	lines := a.orderInvariant[p.Filename]
	return lines[p.Line] || lines[p.Line-1]
}

// directiveSpec names the one place each directive kind may appear, and how
// an error message describes it.
var directiveSpec = map[string]struct{ place, belongsOn string }{
	DirDeterministic:  {"package", "a package doc comment"},
	DirOrderInvariant: {"floating", "a statement inside a function body"},
}

// placeNames describes each place a directive comment can sit.
var placeNames = map[string]string{
	"package":     "a package doc comment",
	"function":    "a function",
	"declaration": "a const, var or import declaration",
	"type":        "a type",
	"value":       "a const or var",
	"field":       "a struct field",
	"floating":    "a floating comment",
}

// ParseAnnotations extracts every //ccsvm: directive of the package.
// Malformed and misplaced directives are collected in Errors, never silently
// applied.
func ParseAnnotations(fset *token.FileSet, files []*ast.File) *Annotations {
	a := &Annotations{orderInvariant: make(map[string]map[int]bool)}
	for _, file := range files {
		a.parseFile(fset, file)
	}
	return a
}

func (a *Annotations) parseFile(fset *token.FileSet, file *ast.File) {
	// Comment groups attached to declarations take the declaration's place;
	// any other comment is floating.
	places := make(map[*ast.CommentGroup]string)
	ast.Inspect(file, func(n ast.Node) bool {
		switch decl := n.(type) {
		case *ast.FuncDecl:
			places[decl.Doc] = "function"
		case *ast.GenDecl:
			// The doc comment of a non-parenthesized `type T ...`
			// declaration attaches to the GenDecl, not the TypeSpec.
			places[decl.Doc] = "declaration"
			if decl.Tok == token.TYPE {
				places[decl.Doc] = "type"
			}
		case *ast.TypeSpec:
			places[decl.Doc], places[decl.Comment] = "type", "type"
		case *ast.ValueSpec:
			places[decl.Doc], places[decl.Comment] = "value", "value"
		case *ast.Field:
			places[decl.Doc], places[decl.Comment] = "field", "field"
		}
		return true
	})
	places[file.Doc] = "package"

	for _, group := range file.Comments {
		place := places[group]
		if place == "" {
			place = "floating"
		}
		for _, d := range a.parseGroup(group) {
			spec := directiveSpec[d.Kind]
			if place != spec.place {
				a.Errors = append(a.Errors, AnnotationError{
					Pos: d.Pos,
					Msg: fmt.Sprintf("directive ccsvm:%s is not allowed on %s; it belongs on %s",
						d.Kind, placeNames[place], spec.belongsOn),
				})
				continue
			}
			if place == "package" {
				a.Pkg = append(a.Pkg, d)
				continue
			}
			p := fset.Position(d.Pos)
			if a.orderInvariant[p.Filename] == nil {
				a.orderInvariant[p.Filename] = make(map[int]bool)
			}
			a.orderInvariant[p.Filename][p.Line] = true
		}
	}
}

// parseGroup extracts the well-formed directives of one comment group,
// recording malformed ones as errors.
func (a *Annotations) parseGroup(group *ast.CommentGroup) []Directive {
	var out []Directive
	for _, c := range group.List {
		text := c.Text
		// Allow a trailing comment after the directive, matching gofmt's
		// inline-comment style: "//ccsvm:orderinvariant // explanation".
		if i := strings.Index(text, " //"); i > 0 {
			text = strings.TrimRight(text[:i], " \t")
		}
		if strings.HasPrefix(text, "// ccsvm:") {
			a.Errors = append(a.Errors, AnnotationError{
				Pos: c.Pos(),
				Msg: "malformed directive: remove the space between // and ccsvm: (directives follow the //go: convention)",
			})
			continue
		}
		rest, ok := strings.CutPrefix(text, directivePrefix)
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		switch {
		case len(fields) == 0:
			a.Errors = append(a.Errors, AnnotationError{Pos: c.Pos(), Msg: "empty ccsvm: directive"})
		case directiveSpec[fields[0]].place == "":
			a.Errors = append(a.Errors, AnnotationError{
				Pos: c.Pos(),
				Msg: fmt.Sprintf("unknown directive ccsvm:%s (known: %s)", fields[0],
					strings.Join(slices.Sorted(maps.Keys(directiveSpec)), ", ")),
			})
		case len(fields) > 1:
			a.Errors = append(a.Errors, AnnotationError{
				Pos: c.Pos(),
				Msg: fmt.Sprintf("directive ccsvm:%s takes no argument", fields[0]),
			})
		default:
			out = append(out, Directive{Kind: fields[0], Pos: c.Pos()})
		}
	}
	return out
}
