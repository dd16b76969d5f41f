// Command reptile-lint runs the project's static-analysis suite over the
// module: lockguard, freezeguard, wireproto, nosleepsync, goroutine-hygiene,
// and the type-aware trio hotpath, errorflow, and msgorder (see internal/lint
// and the "Concurrency invariants" and "Type-aware analyzers" sections of
// DESIGN.md).
//
// Usage:
//
//	reptile-lint [-list] [-json] [packages]
//
// Packages default to ./... and use go-list-style patterns resolved against
// the enclosing module. With -json each finding is printed as one JSON
// object per line ({"file","line","col","analyzer","message"}) instead of
// the human-readable form, for CI annotation tooling.
//
// Exit status contract:
//
//	0  the run completed and found nothing
//	1  the run completed with one or more findings
//	2  the run itself failed (bad working directory, unreadable module,
//	   unparsable source, a module package that does not type-check)
//
// so `go run ./cmd/reptile-lint ./...` gates CI directly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"reptile/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON lines instead of text")
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-18s %s\n", a.Name(), a.Doc())
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := lint.ModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	pkgs, err := lint.Load(root, patterns)
	if err != nil {
		fatal(err)
	}
	diags := lint.Run(pkgs, analyzers)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, d := range diags {
			if err := enc.Encode(d.JSON()); err != nil {
				fatal(err)
			}
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if n := len(diags); n > 0 {
		fmt.Fprintf(os.Stderr, "reptile-lint: %d finding(s) in %d package(s)\n", n, len(pkgs))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reptile-lint:", err)
	os.Exit(2)
}
