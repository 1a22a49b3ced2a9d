package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The //ccsvm: directive vocabulary. Directives are machine-readable comments
// (in the style of //go:build) that declare which invariant a declaration
// participates in; the analyzers in this package enforce them. The vocabulary
// is documented for contributors in ARCHITECTURE.md ("Static enforcement").
const (
	// DirDeterministic marks a package (in its package doc comment) as part
	// of the simulated machine: the determinism analyzer forbids wall-clock
	// reads, global math/rand, goroutine launches and order-sensitive map
	// iteration inside it.
	DirDeterministic = "deterministic"
	// DirEngineCtx marks a function that must only run in engine context (an
	// event callback or machine-build code); the enginectx analyzer reports
	// any call chain reaching it from a workload-goroutine entry point.
	DirEngineCtx = "enginectx"
	// DirHotPath marks a function on the allocation-free hot path: the
	// allocfree analyzer forbids every heap-allocating construct inside it,
	// capturing closures included.
	DirHotPath = "hotpath"
	// DirThreadEntry marks an API whose function-valued arguments become
	// workload-goroutine bodies (exec.NewThread and its wrappers); the
	// enginectx analyzer treats such arguments as reachability roots.
	DirThreadEntry = "threadentry"
	// DirPooled marks a pool endpoint: "//ccsvm:pooled get" on functions that
	// hand out a pooled object the caller must release or transfer,
	// "//ccsvm:pooled put" on the matching release functions.
	DirPooled = "pooled"
	// DirOrderInvariant suppresses the map-iteration determinism check for
	// the range statement on the same or next line; it is a reviewed claim
	// that the loop body's effects commute (or are sorted afterwards).
	DirOrderInvariant = "orderinvariant"
	// DirAllocOk suppresses the allocfree analyzer for the statement on the
	// same or next line inside a //ccsvm:hotpath function; it is a reviewed
	// claim that the allocation is amortized (pool chunk refill, slice
	// growth to a high-water mark) or otherwise off the steady-state path.
	DirAllocOk = "allocok"
)

// directivePrefix introduces every ccsvm directive comment.
const directivePrefix = "//ccsvm:"

// Directive is one parsed //ccsvm: annotation.
type Directive struct {
	// Kind is one of the Dir* constants.
	Kind string
	// Arg is the directive argument ("get" or "put" for pooled; empty
	// otherwise).
	Arg string
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
	// Pkg holds package-level directives (currently only deterministic).
	Pkg []Directive
	// ByObj maps annotated functions, methods and interface methods to their
	// directives.
	ByObj map[types.Object][]Directive
	// floatingLines records the file lines carrying each floating directive
	// kind, keyed by kind, then filename, then line.
	floatingLines map[string]map[string]map[int]bool
	// Errors collects malformed and misplaced directives; the ccsvmdirective
	// analyzer reports them.
	Errors []AnnotationError
}

// Has reports whether obj carries a directive of the given kind.
func (a *Annotations) Has(obj types.Object, kind string) bool {
	for _, d := range a.ByObj[obj] {
		if d.Kind == kind {
			return true
		}
	}
	return false
}

// PooledArg returns "get" or "put" when obj carries a pooled directive, else
// the empty string.
func (a *Annotations) PooledArg(obj types.Object) string {
	for _, d := range a.ByObj[obj] {
		if d.Kind == DirPooled {
			return d.Arg
		}
	}
	return ""
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

// FloatingAt reports whether a floating directive of the given kind is
// attached to the statement at pos: on the same line (trailing comment) or
// the line directly above it.
func (a *Annotations) FloatingAt(kind string, fset *token.FileSet, pos token.Pos) bool {
	p := fset.Position(pos)
	lines := a.floatingLines[kind][p.Filename]
	return lines[p.Line] || lines[p.Line-1]
}

// OrderInvariantAt reports whether an orderinvariant directive is attached to
// the statement at pos.
func (a *Annotations) OrderInvariantAt(fset *token.FileSet, pos token.Pos) bool {
	return a.FloatingAt(DirOrderInvariant, fset, pos)
}

// AllocOkAt reports whether an allocok directive is attached to the
// statement or expression at pos.
func (a *Annotations) AllocOkAt(fset *token.FileSet, pos token.Pos) bool {
	return a.FloatingAt(DirAllocOk, fset, pos)
}

// directiveSpec describes where each directive kind may appear and whether it
// takes an argument.
var directiveSpec = map[string]struct {
	onPackage, onFunc, floating bool
	args                        []string // allowed argument values; nil means no argument
}{
	DirDeterministic:  {onPackage: true},
	DirEngineCtx:      {onFunc: true},
	DirHotPath:        {onFunc: true},
	DirThreadEntry:    {onFunc: true},
	DirPooled:         {onFunc: true, args: []string{"get", "put"}},
	DirOrderInvariant: {floating: true},
	DirAllocOk:        {floating: true},
}

// ParseAnnotations extracts every //ccsvm: directive of the package, resolving
// function-level directives to their types.Object. Malformed directives are
// collected in Errors, never silently applied.
func ParseAnnotations(fset *token.FileSet, files []*ast.File, info *types.Info) *Annotations {
	a := &Annotations{
		ByObj:         make(map[types.Object][]Directive),
		floatingLines: make(map[string]map[string]map[int]bool),
	}
	for _, file := range files {
		a.parseFile(fset, file, info)
	}
	return a
}

func (a *Annotations) parseFile(fset *token.FileSet, file *ast.File, info *types.Info) {
	// Doc comment groups attached to declarations, handled structurally; any
	// other //ccsvm: comment is "floating" and may only carry floating
	// directives such as orderinvariant.
	attached := make(map[*ast.CommentGroup]bool)

	if file.Doc != nil {
		attached[file.Doc] = true
		for _, d := range a.parseGroup(file.Doc) {
			a.place(d, "package", func() { a.Pkg = append(a.Pkg, d) })
		}
	}

	ast.Inspect(file, func(n ast.Node) bool {
		switch decl := n.(type) {
		case *ast.FuncDecl:
			if decl.Doc != nil {
				attached[decl.Doc] = true
				obj := info.Defs[decl.Name]
				for _, d := range a.parseGroup(decl.Doc) {
					a.place(d, "function", func() { a.ByObj[obj] = append(a.ByObj[obj], d) })
				}
			}
		case *ast.GenDecl:
			if decl.Doc != nil {
				attached[decl.Doc] = true
				// The doc comment of a non-parenthesized `type T ...`
				// declaration attaches to the GenDecl, not the TypeSpec.
				where := "declaration"
				if decl.Tok == token.TYPE {
					where = "type"
				}
				for _, d := range a.parseGroup(decl.Doc) {
					a.misplaced(d, where)
				}
			}
		case *ast.TypeSpec:
			if decl.Doc != nil {
				attached[decl.Doc] = true
				for _, d := range a.parseGroup(decl.Doc) {
					a.misplaced(d, "type")
				}
			}
			if decl.Comment != nil {
				attached[decl.Comment] = true
			}
		case *ast.ValueSpec:
			if decl.Doc != nil {
				attached[decl.Doc] = true
				for _, d := range a.parseGroup(decl.Doc) {
					a.misplaced(d, "value")
				}
			}
			if decl.Comment != nil {
				attached[decl.Comment] = true
			}
		case *ast.Field:
			for _, group := range []*ast.CommentGroup{decl.Doc, decl.Comment} {
				if group == nil {
					continue
				}
				attached[group] = true
				if obj := interfaceMethodObj(decl, info); obj != nil {
					for _, d := range a.parseGroup(group) {
						a.place(d, "function", func() { a.ByObj[obj] = append(a.ByObj[obj], d) })
					}
					continue
				}
				for _, d := range a.parseGroup(group) {
					a.misplaced(d, "field")
				}
			}
		}
		return true
	})

	for _, group := range file.Comments {
		if attached[group] {
			continue
		}
		for _, d := range a.parseGroup(group) {
			a.place(d, "floating", func() {
				p := fset.Position(d.Pos)
				byFile := a.floatingLines[d.Kind]
				if byFile == nil {
					byFile = make(map[string]map[int]bool)
					a.floatingLines[d.Kind] = byFile
				}
				lines := byFile[p.Filename]
				if lines == nil {
					lines = make(map[int]bool)
					byFile[p.Filename] = lines
				}
				lines[p.Line] = true
			})
		}
	}
}

// interfaceMethodObj returns the *types.Func of an interface method field, or
// nil when the field is not one.
func interfaceMethodObj(f *ast.Field, info *types.Info) types.Object {
	if len(f.Names) != 1 {
		return nil
	}
	if _, ok := f.Type.(*ast.FuncType); !ok {
		return nil
	}
	obj := info.Defs[f.Names[0]]
	if _, ok := obj.(*types.Func); ok {
		return obj
	}
	return nil
}

// place validates a directive's placement ("package", "function" or
// "floating") and either applies it via apply or records an error.
func (a *Annotations) place(d Directive, where string, apply func()) {
	spec := directiveSpec[d.Kind]
	ok := (where == "package" && spec.onPackage) ||
		(where == "function" && spec.onFunc) ||
		(where == "floating" && spec.floating)
	if !ok {
		a.misplaced(d, where)
		return
	}
	apply()
}

func (a *Annotations) misplaced(d Directive, where string) {
	spec := directiveSpec[d.Kind]
	var allowed []string
	if spec.onPackage {
		allowed = append(allowed, "a package doc comment")
	}
	if spec.onFunc {
		allowed = append(allowed, "a function, method or interface-method doc comment")
	}
	if spec.floating {
		allowed = append(allowed, "a statement inside a function body")
	}
	wherePhrase := map[string]string{
		"package":     "a package doc comment",
		"function":    "a function",
		"declaration": "a const, var or import declaration",
		"type":        "a type",
		"value":       "a const or var",
		"field":       "a struct field",
		"floating":    "a floating comment",
	}[where]
	a.Errors = append(a.Errors, AnnotationError{
		Pos: d.Pos,
		Msg: fmt.Sprintf("directive ccsvm:%s is not allowed on %s; it belongs on %s",
			d.Kind, wherePhrase, strings.Join(allowed, " or ")),
	})
}

// parseGroup extracts the well-formed directives of one comment group,
// recording malformed ones as errors.
func (a *Annotations) parseGroup(group *ast.CommentGroup) []Directive {
	var out []Directive
	for _, c := range group.List {
		text := c.Text
		// Allow a trailing comment after the directive, matching gofmt's
		// inline-comment style: "//ccsvm:pooled get // explanation".
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
		if len(fields) == 0 {
			a.Errors = append(a.Errors, AnnotationError{Pos: c.Pos(), Msg: "empty ccsvm: directive"})
			continue
		}
		kind := fields[0]
		spec, known := directiveSpec[kind]
		if !known {
			a.Errors = append(a.Errors, AnnotationError{
				Pos: c.Pos(),
				Msg: fmt.Sprintf("unknown directive ccsvm:%s (known: %s)", kind, knownDirectives()),
			})
			continue
		}
		d := Directive{Kind: kind, Pos: c.Pos()}
		switch {
		case spec.args == nil && len(fields) > 1:
			a.Errors = append(a.Errors, AnnotationError{
				Pos: c.Pos(),
				Msg: fmt.Sprintf("directive ccsvm:%s takes no argument", kind),
			})
			continue
		case spec.args != nil:
			if len(fields) != 2 || !contains(spec.args, fields[1]) {
				a.Errors = append(a.Errors, AnnotationError{
					Pos: c.Pos(),
					Msg: fmt.Sprintf("directive ccsvm:%s requires exactly one argument out of: %s",
						kind, strings.Join(spec.args, ", ")),
				})
				continue
			}
			d.Arg = fields[1]
		}
		out = append(out, d)
	}
	return out
}

func knownDirectives() string {
	names := make([]string, 0, len(directiveSpec))
	for k := range directiveSpec {
		names = append(names, k)
	}
	// Map iteration order is irrelevant for an error message, but sort for
	// stable output anyway.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return strings.Join(names, ", ")
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
