package hotalloc

import (
	"go/ast"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"gossipstream/internal/simlint/lintcfg"
	"gossipstream/internal/simlint/load"
)

// TestDefaultHotRootsResolve loads the module's own packages and fails on
// any configured hot root that names no declaration in the packages it
// applies to. reach skips such a root without a word, so a renamed or
// deleted entry point would otherwise drop out of the audit while simlint
// stays clean.
func TestDefaultHotRootsResolve(t *testing.T) {
	gomod, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := load.Load(filepath.Dir(strings.TrimSpace(string(gomod))), "./...")
	if err != nil {
		t.Fatal(err)
	}
	cfg := lintcfg.Default()
	// declared[key] holds every declaration name in the packages whose
	// roots cfg.Roots takes from HotRoots[key]: the first path segment
	// that has any.
	declared := make(map[string]map[string]bool)
	for _, p := range pkgs {
		for _, seg := range strings.Split(p.Path, "/") {
			if len(cfg.HotRoots[seg]) == 0 {
				continue
			}
			if declared[seg] == nil {
				declared[seg] = make(map[string]bool)
			}
			for _, f := range p.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok {
						declared[seg][declName(fd)] = true
					}
				}
			}
			break
		}
	}
	keys := make([]string, 0, len(cfg.HotRoots))
	for key := range cfg.HotRoots {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		names, ok := declared[key]
		if !ok {
			t.Errorf("hot roots for %q: no package of the module has that path segment", key)
			continue
		}
		for _, root := range cfg.HotRoots[key] {
			if !names[root] {
				t.Errorf("hot root %s in %q names no declaration", root, key)
			}
		}
	}
}
