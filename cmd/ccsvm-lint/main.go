// ccsvm-lint runs the ccsvm static-analysis suite (internal/lint) over the
// repository: the determinism analyzer and //ccsvm: directive hygiene. It is
// the multichecker CI runs; findings print one per line, and a non-zero exit
// means findings (1) or a load failure (2).
//
// Usage:
//
//	go run ./cmd/ccsvm-lint ./...
//	go run ./cmd/ccsvm-lint ./internal/sim
//	go run ./cmd/ccsvm-lint -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ccsvm/internal/lint"
	"ccsvm/internal/lint/load"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ccsvm-lint [-list] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, strings.ReplaceAll(a.Doc, "\n", "\n                   "))
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Println(a.Name)
		}
		return
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
	for _, f := range findings {
		fmt.Printf("%s: [%s] %s\n", f.Pos, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "ccsvm-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
