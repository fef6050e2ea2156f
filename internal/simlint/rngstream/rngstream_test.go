package rngstream_test

import (
	"testing"

	"gossipstream/internal/simlint/linttest"
	"gossipstream/internal/simlint/rngstream"
)

func TestRNGStream(t *testing.T) {
	linttest.Run(t, rngstream.New(), "testdata", "pss")
}
