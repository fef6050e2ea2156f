package linttest_test

import (
	"testing"

	"gossipstream/internal/simlint/linttest"
	"gossipstream/internal/simlint/maprange"
)

// TestHarnessLoadsFixtureGraph runs a real analyzer over the harness's
// own fixture, which imports both a sibling fixture package (churnhelp,
// type-checked from source) and a real module package (internal/xrand,
// resolved through export data). A want-comment mismatch in either
// direction fails the inner test, so a plain green run certifies the
// whole load-run-match pipeline.
func TestHarnessLoadsFixtureGraph(t *testing.T) {
	linttest.Run(t, maprange.New(), "testdata", "churn")
}
