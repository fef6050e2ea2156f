// Package maprange flags `range` over map types in determinism-critical
// packages. Go randomizes map iteration order per run, so any map range
// whose body is order-sensitive — picking a send order, building a slice,
// emitting messages — silently breaks bit-identical fixed-seed
// replay. Exactly this bug shipped once: core.retransmit iterated a Go map
// to choose its retransmission order and twin runs diverged (fixed in
// PR 2); the analyzer exists so the compiler loop catches the next one.
//
// Order-insensitive loops (pure aggregation into commutative state) are
// allowlisted with `//lint:ordered <justification>` on the range line or
// the line above; the justification is mandatory.
package maprange

import (
	"go/ast"
	"go/types"

	"gossipstream/internal/simlint/analysis"
	"gossipstream/internal/simlint/lintcfg"
)

// New returns the analyzer configured with cfg's package classification.
func New(cfg *lintcfg.Config) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "maprange",
		Doc: "flags range over maps in determinism-critical packages; map iteration order " +
			"is randomized and breaks fixed-seed replay unless the loop body is order-insensitive " +
			"(annotate //lint:ordered <why>)",
	}
	a.Run = func(pass *analysis.Pass) error {
		switch cfg.Classify(pass.Pkg.Path()) {
		case lintcfg.Deterministic, lintcfg.Kernel:
		default:
			return nil
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := pass.TypesInfo.TypeOf(rs.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if pass.Suppressed(rs.Pos(), "ordered") {
					return true
				}
				pass.Reportf(rs.Pos(),
					"range over map %s in a deterministic package: iteration order is randomized per run and breaks fixed-seed replay; iterate sorted keys, or annotate //lint:ordered <why> if the body is order-insensitive",
					types.TypeString(t, types.RelativeTo(pass.Pkg)))
				return true
			})
		}
		return nil
	}
	return a
}
