// Command simlint runs the repository's determinism and hot-path
// analyzers (internal/simlint) over Go packages, multichecker-style:
//
//	go run ./cmd/simlint ./...
//
// The suite proves at compile time the invariants the acceptance tests
// can only sample: no map-order-dependent control flow, no wall clocks or
// global RNG streams in simulation packages, xrand-seeded RNG state only,
// and allocation discipline on the per-event hot path. CI runs it as a
// blocking job; a finding is fixed or annotated (//lint:<verb> <why>),
// never ignored.
//
// Exit codes: 0 clean (or -h), 1 findings reported, 2 usage or load error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"gossipstream/internal/simlint/analysis"
	"gossipstream/internal/simlint/hotalloc"
	"gossipstream/internal/simlint/load"
	"gossipstream/internal/simlint/maprange"
	"gossipstream/internal/simlint/rngstream"
	"gossipstream/internal/simlint/wallclock"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// analyzers builds the full suite. Each analyzer reads the contract from
// the code: the packages marked //lint:deterministic and the functions
// marked //lint:hot. The directive check reports an opt-in that would
// silently mark nothing.
func analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		maprange.New(),
		wallclock.New(),
		hotalloc.New(),
		rngstream.New(),
		analysis.Directives,
	}
}

// run is the testable driver: it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list = fs.Bool("list", false, "list the analyzers and what each enforces, then exit")
		only = fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	)
	usage := func(w io.Writer) {
		fmt.Fprintf(w, "usage: simlint [flags] [packages]\n\nruns the determinism/hot-path analyzer suite; packages default to ./...\n\n")
		fs.SetOutput(w)
		fs.PrintDefaults()
	}
	fs.Usage = func() {} // printed below, where -h and a bad flag part ways
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			usage(stdout) // -h/-help: asked for, not a failure
			return 0
		}
		usage(stderr)
		return 2
	}

	suite := analyzers()

	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer, len(suite))
		for _, a := range suite {
			byName[a.Name] = a
		}
		var picked []*analysis.Analyzer
		for _, name := range split(*only) {
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(stderr, "simlint: unknown analyzer %q (see -list)\n", name)
				return 2
			}
			picked = append(picked, a)
		}
		suite = picked
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "simlint: %v\n", err)
		return 2
	}

	findings := 0
	for _, pkg := range pkgs {
		for _, a := range suite {
			diags, err := analysis.Run(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
			if err != nil {
				fmt.Fprintf(stderr, "simlint: %s: %v\n", pkg.Path, err)
				return 2
			}
			for _, d := range diags {
				findings++
				fmt.Fprintf(stdout, "%s: %s (%s)\n", relPosition(pkg, d), d.Message, d.Analyzer)
			}
		}
	}
	if findings > 0 {
		fmt.Fprintf(stderr, "simlint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}

// relPosition renders a diagnostic position with the file path relative
// to the working directory when possible.
func relPosition(pkg *load.Package, d analysis.Diagnostic) string {
	pos := pkg.Fset.Position(d.Pos)
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
	}
	return pos.String()
}

func split(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
