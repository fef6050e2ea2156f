package wallclock_test

import (
	"testing"

	"gossipstream/internal/simlint/linttest"
	"gossipstream/internal/simlint/wallclock"
)

func TestWallClock(t *testing.T) {
	linttest.Run(t, wallclock.New(), "testdata", "stream", "rt")
}
