// Package wallclock bans wall-clock time and the global math/rand stream
// from simulation packages. Simulated time must flow from the engine
// (core.Env.Now / megasim shard clocks): a time.Now read or a real timer
// makes results depend on host scheduling, and the process-wide math/rand
// stream makes them depend on whatever else drew from it. The process edge
// — internal/rt and the command mains — carries no //lint:deterministic
// and is not checked; every package that carries one is.
package wallclock

import (
	"go/ast"
	"go/types"

	"gossipstream/internal/simlint/analysis"
)

// bannedTime are the package-level time functions that read the wall
// clock or construct real timers. time.Duration arithmetic and constants
// stay legal — simulation code is written in terms of time.Duration.
var bannedTime = map[string]string{
	"Now":       "reads the wall clock",
	"Since":     "reads the wall clock",
	"Until":     "reads the wall clock",
	"Sleep":     "blocks on real time",
	"After":     "constructs a real timer",
	"AfterFunc": "constructs a real timer",
	"Tick":      "constructs a real ticker",
	"NewTimer":  "constructs a real timer",
	"NewTicker": "constructs a real ticker",
}

// rngConstructors are handled by the rngstream analyzer instead: rand.New
// over an xrand source is the sanctioned way to build a stream.
var rngConstructors = map[string]bool{"New": true, "NewSource": true}

// New returns the analyzer; it checks the packages marked
// //lint:deterministic.
func New() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "wallclock",
		Doc: "bans time.Now/time.Since, real timer construction, and the global math/rand " +
			"stream in simulation packages; virtual time and randomness must flow from the engine",
	}
	a.Run = func(pass *analysis.Pass) error {
		if !pass.Deterministic() {
			return nil
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Signature().Recv() != nil {
					return true // methods (e.g. rand.Rand.Intn on a private stream) are fine
				}
				switch analysis.PkgPathOf(fn) {
				case "time":
					if why, banned := bannedTime[fn.Name()]; banned {
						pass.Reportf(sel.Pos(),
							"time.%s %s in a simulation package: virtual time must flow from the engine clock (core.Env.Now / megasim shard time), never the host",
							fn.Name(), why)
					}
				case "math/rand", "math/rand/v2":
					if !rngConstructors[fn.Name()] {
						pass.Reportf(sel.Pos(),
							"global math/rand stream (rand.%s) in a simulation package: process-wide RNG state breaks per-shard replay; draw from the node's or shard's private stream",
							fn.Name())
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}
