// Package churn is the harness's own fixture: marked deterministic,
// importing both a sibling fixture package and a real module package, so
// loading exercises every import-resolution path.
//
//lint:deterministic the fixture stands for the churn schedules, drawn per seed
package churn

import (
	"churnhelp"

	"gossipstream/internal/xrand"
)

func Jitter(seed int64, m map[int]int) int {
	rng := xrand.Seeded(seed)
	total := churnhelp.Base()
	for _, v := range m { // want `range over map`
		total += v
	}
	return total + rng.Intn(8)
}
