package maprange_test

import (
	"testing"

	"gossipstream/internal/simlint/linttest"
	"gossipstream/internal/simlint/maprange"
)

func TestMapRange(t *testing.T) {
	linttest.Run(t, maprange.New(), "testdata", "core", "util")
}
