package hotalloc

import (
	"go/ast"
	"go/types"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gossipstream/internal/simlint/analysis"
	"gossipstream/internal/simlint/load"
)

// The module's contract is read from its directives, so a dropped or
// misspelled //lint:deterministic or //lint:hot would leave simlint clean
// while a package or a root fell out of the audit. These tests pin the
// parts of the contract that must not fall out.

var (
	moduleOnce   sync.Once
	modulePasses map[string]*analysis.Pass // import path -> pass
	moduleErr    error
)

// passes loads the module's own packages once.
func passes(t *testing.T) map[string]*analysis.Pass {
	t.Helper()
	moduleOnce.Do(func() {
		gomod, err := exec.Command("go", "env", "GOMOD").Output()
		if err != nil {
			moduleErr = err
			return
		}
		pkgs, err := load.Load(filepath.Dir(strings.TrimSpace(string(gomod))), "./...")
		if err != nil {
			moduleErr = err
			return
		}
		modulePasses = make(map[string]*analysis.Pass, len(pkgs))
		for _, p := range pkgs {
			modulePasses[p.Path] = &analysis.Pass{Fset: p.Fset, Files: p.Files, Pkg: p.Types, TypesInfo: p.Info}
		}
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return modulePasses
}

func TestDeterministicPackages(t *testing.T) {
	ps := passes(t)
	for path, want := range map[string]bool{
		"megasim": true, "core": true, "pss": true, "experiment": true,
		"churn": true, "stream": true, "wire": true, "telemetry": true,
		"slab": true, "gf256": true, "fec": true,
		"member": true, "shaping": true, "simnet": true,
		// The process edge: wall clocks and OS randomness are its job.
		"rt": false, "telemetry/teleclock": false, "xrand": false,
	} {
		p := ps["gossipstream/internal/"+path]
		if p == nil {
			t.Errorf("internal/%s: no such package", path)
			continue
		}
		if got := p.Deterministic(); got != want {
			t.Errorf("internal/%s: marked deterministic = %v, want %v", path, got, want)
		}
	}
	for _, path := range []string{"gossipstream", "gossipstream/cmd/gossipsim", "gossipstream/cmd/figures"} {
		if p := ps[path]; p == nil || p.Deterministic() {
			t.Errorf("%s: missing, or marked deterministic", path)
		}
	}
}

// roots names the package's //lint:hot functions.
func roots(p *analysis.Pass) map[string]bool {
	names := map[string]bool{}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && p.Marked(fd.Pos(), "hot") {
				names[funcName(p.TypesInfo.Defs[fd.Name].(*types.Func))] = true
			}
		}
	}
	return names
}

func TestHotRoots(t *testing.T) {
	ps := passes(t)
	for path, want := range map[string][]string{
		// The queue's methods are roots of their own: peekAt is also
		// reached from the supervisor's next-event scan between windows,
		// outside runWindow's walk. The typed sends are reached only
		// through core.TimerEnv, and the message stores run per send.
		"megasim": {
			"(*shard).runWindow", "(*shard).mergeInbound",
			"(*radixQueue).push", "(*radixQueue).pop", "(*radixQueue).peekAt",
			"(*NodeEnv).SendIDs", "(*NodeEnv).SendServe",
			"delivery", "(*msgRec).reuse", "(*shard).store", "(*shard).newRec",
			"(*outbox).push", "(*outbox).store", "(*shard).adopt",
		},
		// The engines reach the handlers only through interfaces and
		// closures, so without roots of its own the protocol is unaudited.
		"core":      {"(*Peer).HandleIDs"},
		"telemetry": nil,
		"wire":      nil,
		// Reached only through member.DynamicSampler and member.Sampler.
		"pss":    {"(*State).Tick", "(*State).Handle", "(*State).SampleInto"},
		"member": {"(*View).Partners"},
	} {
		p := ps["gossipstream/internal/"+path]
		if p == nil {
			t.Errorf("internal/%s: no such package", path)
			continue
		}
		got := roots(p)
		if len(got) == 0 {
			t.Errorf("internal/%s has no //lint:hot roots", path)
		}
		for _, w := range want {
			if !got[w] {
				t.Errorf("internal/%s: %s is not marked //lint:hot", path, w)
			}
		}
	}
	if got := roots(ps["gossipstream/internal/churn"]); len(got) != 0 {
		t.Errorf("internal/churn unexpectedly has hot roots %v", got)
	}
}
