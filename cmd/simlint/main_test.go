package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// chModuleRoot runs the driver from the module root, where the relative
// fixture paths below resolve.
func chModuleRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(filepath.Dir(filepath.Dir(wd)))
}

const dirtyFixture = "./internal/simlint/maprange/testdata/src/core"

func TestListFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list: exit %d, stderr %q", code, errOut.String())
	}
	for _, name := range []string{"maprange", "wallclock", "hotalloc", "rngstream", "directive"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, out.String())
		}
	}
}

// TestHelpExitsZero: -h prints the usage to stdout and exits 0, like the
// repository's other tools, and the contract has no flags left: only -list
// and -only remain.
func TestHelpExitsZero(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-h"}, &out, &errOut); code != 0 {
		t.Fatalf("-h: exit %d, want 0 (stderr %q)", code, errOut.String())
	}
	if errOut.String() != "" {
		t.Errorf("-h wrote to stderr: %q", errOut.String())
	}
	var flags []string
	for _, line := range strings.Split(out.String(), "\n") {
		if f, ok := strings.CutPrefix(line, "  -"); ok {
			flags = append(flags, strings.Fields(f)[0])
		}
	}
	if want := []string{"list", "only"}; !slices.Equal(flags, want) {
		t.Errorf("-h lists flags %v, want %v:\n%s", flags, want, out.String())
	}
}

func TestUsageErrors(t *testing.T) {
	cases := map[string][]string{
		"bad flag":         {"-definitely-not-a-flag"},
		"unknown analyzer": {"-only", "nosuch"},
		"bad pattern":      {"./does/not/exist"},
	}
	for name, args := range cases {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%s (%v): exit %d, want 2 (stderr %q)", name, args, code, errOut.String())
		}
	}
}

func TestCleanTreeExitsZero(t *testing.T) {
	chModuleRoot(t)
	var out, errOut strings.Builder
	if code := run([]string{"./internal/xrand"}, &out, &errOut); code != 0 {
		t.Fatalf("clean package: exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if out.String() != "" {
		t.Errorf("clean package produced output: %s", out.String())
	}
}

// TestFindingsExitOne drives the driver over the maprange regression
// fixture — the PR 2 core.retransmit map-iteration shape — and expects
// findings with exit code 1.
func TestFindingsExitOne(t *testing.T) {
	chModuleRoot(t)
	var out, errOut strings.Builder
	if code := run([]string{dirtyFixture}, &out, &errOut); code != 1 {
		t.Fatalf("dirty fixture: exit %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "range over map") || !strings.Contains(out.String(), "(maprange)") {
		t.Errorf("missing maprange finding in output:\n%s", out.String())
	}
}

// TestOnlySelectsAnalyzers confirms -only drops the other analyzers: the
// dirty maprange fixture is clean under wallclock alone.
func TestOnlySelectsAnalyzers(t *testing.T) {
	chModuleRoot(t)
	var out, errOut strings.Builder
	if code := run([]string{"-only", "wallclock", dirtyFixture}, &out, &errOut); code != 0 {
		t.Fatalf("-only wallclock on maprange fixture: exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
}

// TestUnmarkedPackageExitsZero: the determinism checks follow the
// //lint:deterministic directive, so the same order-sensitive map range
// that fails the marked core fixture passes in the unmarked util one.
func TestUnmarkedPackageExitsZero(t *testing.T) {
	chModuleRoot(t)
	var out, errOut strings.Builder
	if code := run([]string{"./internal/simlint/maprange/testdata/src/util"}, &out, &errOut); code != 0 {
		t.Fatalf("unmarked fixture: exit %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
}
