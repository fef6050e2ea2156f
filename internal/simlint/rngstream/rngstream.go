// Package rngstream enforces the repository's RNG discipline in
// deterministic packages: every random stream is seeded from
// internal/xrand's 8-byte splitmix64 state, and no stream is shared
// across shard boundaries through package-level variables.
//
// Two failure shapes are flagged. First, constructing streams with
// math/rand's own sources (rand.NewSource, or rand.New over anything not
// from internal/xrand): the default source is ~5 KB per stream — half a
// gigabyte at 100k nodes — and its state cannot be copied by value into
// the engine's compact node records. Second, package-level RNG state:
// a global stream is inherently shared across shards, so event order on
// one shard perturbs draws on another and fixed-seed replay
// breaks the moment scheduling changes.
package rngstream

import (
	"go/ast"
	"go/types"
	"strings"

	"gossipstream/internal/simlint/analysis"
	"gossipstream/internal/simlint/lintcfg"
)

// New returns the analyzer configured with cfg; cfg.XRandPath names the
// blessed compact-RNG package.
func New(cfg *lintcfg.Config) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "rngstream",
		Doc: "requires RNG streams in deterministic packages to be seeded from internal/xrand " +
			"(8-byte splitmix64) and flags package-level RNG state shared across shard boundaries",
	}
	a.Run = func(pass *analysis.Pass) error {
		switch cfg.Classify(pass.Pkg.Path()) {
		case lintcfg.Deterministic, lintcfg.Kernel:
		default:
			return nil
		}
		for _, f := range pass.Files {
			checkGlobals(pass, cfg, f)
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pass, call)
				if fn == nil {
					return true
				}
				pkg := analysis.PkgPathOf(fn)
				if pkg != "math/rand" && pkg != "math/rand/v2" {
					return true
				}
				switch fn.Name() {
				case "NewSource", "NewPCG", "NewChaCha8":
					pass.Reportf(call.Pos(),
						"rand.%s constructs a non-xrand RNG source: seed streams from %s (8-byte splitmix64, value-copyable into node records) instead",
						fn.Name(), cfg.XRandPath)
				case "New":
					if len(call.Args) == 1 && fromXRand(pass, cfg, call.Args[0]) {
						return true // rand.New over an xrand source is the sanctioned wrapper
					}
					if len(call.Args) == 1 && isDirectRNGConstructor(pass, call.Args[0]) {
						return true // the inner NewSource call is already reported above
					}
					pass.Reportf(call.Pos(),
						"rand.New over a non-xrand source: streams in deterministic packages must come from %s so their 8-byte state stays compact and replay-portable",
						cfg.XRandPath)
				}
				return true
			})
		}
		return nil
	}
	return a
}

// checkGlobals flags package-level variables holding RNG state.
func checkGlobals(pass *analysis.Pass, cfg *lintcfg.Config, f *ast.File) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				obj, ok := pass.TypesInfo.Defs[name].(*types.Var)
				if !ok || obj.Parent() != pass.Pkg.Scope() {
					continue
				}
				if holdsRNGState(obj.Type(), cfg) {
					pass.Reportf(name.Pos(),
						"package-level RNG state %q (%s) is shared across every shard and goroutine: draws interleave with scheduling and break fixed-(seed, shards) replay; thread a per-node or per-shard stream instead",
						name.Name, types.TypeString(obj.Type(), types.RelativeTo(pass.Pkg)))
				}
			}
		}
	}
}

// holdsRNGState reports whether t is (or points to) RNG stream state:
// math/rand's Rand or Source types, or xrand's generator types.
func holdsRNGState(t types.Type, cfg *lintcfg.Config) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	switch analysis.PkgPathOf(obj) {
	case "math/rand", "math/rand/v2":
		switch obj.Name() {
		case "Rand", "Source", "Source64", "PCG", "ChaCha8":
			return true
		}
	case cfg.XRandPath:
		return true
	}
	return false
}

// fromXRand reports whether the expression's type is declared in (or is a
// pointer into) the blessed RNG package, or the value was produced by one
// of its constructors.
func fromXRand(pass *analysis.Pass, cfg *lintcfg.Config, arg ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(arg)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok && analysis.PkgPathOf(named.Obj()) == cfg.XRandPath {
		return true
	}
	if call, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
		if fn := calleeFunc(pass, call); fn != nil && analysis.PkgPathOf(fn) == cfg.XRandPath {
			return true
		}
	}
	return false
}

// isDirectRNGConstructor reports whether arg is itself a call into a
// math/rand constructor, which this analyzer reports on its own.
func isDirectRNGConstructor(pass *analysis.Pass, arg ast.Expr) bool {
	call, ok := ast.Unparen(arg).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(pass, call)
	if fn == nil {
		return false
	}
	pkg := analysis.PkgPathOf(fn)
	return (pkg == "math/rand" || pkg == "math/rand/v2") && strings.HasPrefix(fn.Name(), "New")
}

// calleeFunc resolves the function a call statically invokes, or nil.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
