// ccsvm-lint runs the ccsvm static-analysis suite (internal/lint) over the
// repository: determinism, pool-ownership, engine-context and hot-path
// enforcement, plus //ccsvm: directive hygiene. It is the multichecker CI
// runs; a non-zero exit means findings (1) or a load failure (2).
//
// Usage:
//
//	go run ./cmd/ccsvm-lint ./...
//	go run ./cmd/ccsvm-lint -only determinism,allocfree ./internal/sim
//	go run ./cmd/ccsvm-lint -format sarif ./... > lint.sarif
//
// -format selects the report rendering: text (default, one line per
// finding), json (a small stable schema for scripting), or sarif (SARIF
// 2.1.0 for code-scanning upload). JSON and SARIF documents are written to
// stdout even when there are no findings; the exit status is the signal.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ccsvm/internal/lint"
	"ccsvm/internal/lint/analysis"
	"ccsvm/internal/lint/load"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list the analyzers and exit")
	format := flag.String("format", "text", "report format: text, json or sarif")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ccsvm-lint [-only names] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, strings.ReplaceAll(a.Doc, "\n", "\n                   "))
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(os.Stderr, "ccsvm-lint: unknown format %q (want text, json or sarif)\n", *format)
		os.Exit(2)
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Println(a.Name)
		}
		return
	}
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		var selected []*analysis.Analyzer
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "ccsvm-lint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			selected = append(selected, a)
		}
		analyzers = selected
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, modPath, err := load.ModuleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccsvm-lint:", err)
		os.Exit(2)
	}
	loader := load.New(load.Config{Root: root, ModulePath: modPath})
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccsvm-lint:", err)
		os.Exit(2)
	}
	findings, err := lint.Run(loader.Fset(), pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccsvm-lint:", err)
		os.Exit(2)
	}
	switch *format {
	case "json":
		err = lint.WriteJSON(os.Stdout, findings, root)
	case "sarif":
		err = lint.WriteSARIF(os.Stdout, findings, analyzers, root)
	default:
		for _, f := range findings {
			fmt.Printf("%s: [%s] %s\n", f.Pos, f.Analyzer, f.Message)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccsvm-lint:", err)
		os.Exit(2)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "ccsvm-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
