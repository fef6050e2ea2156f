package main

import (
	"reflect"
	"testing"
)

// toyScale keeps every test in this package to seconds: a twentieth of the
// population on a fifth of the stream.
var toyScale = scale{0.05, 0.2}

func TestWorkloadInputsArePureFunctionsOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		for _, sc := range []scale{fullScale, toyScale, toyScale.quarter()} {
			a, b := w.build(3, sc), w.build(3, sc)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s: two builds from seed 3 differ", w.name)
			}
			if a.Seed != 3 || w.build(4, sc).Seed != 4 {
				t.Errorf("%s: the seed does not reach the configuration", w.name)
			}
			if err := a.Validate(); err != nil {
				t.Errorf("%s at scale %+v: %v", w.name, sc, err)
			}
			if a.Queue != 0 {
				t.Errorf("%s selects a scheduler; Queue must stay zero", w.name)
			}
		}
	}
}

func TestFullScaleWorkloadsAreTheDocumentedOnes(t *testing.T) {
	for _, tc := range []struct {
		w                      workload
		nodes, shards, windows int
	}{
		{steady1Shard, 2000, 1, 6},
		{steady2Shard, 2000, 2, 6},
		{cyclonChurn, 1000, 1, 13},
		{paperTestbed, 230, 0, 60},
	} {
		cfg := tc.w.build(1, fullScale)
		if cfg.Nodes != tc.nodes || cfg.Shards != tc.shards || cfg.Layout.Windows != tc.windows {
			t.Errorf("%s: %d nodes, %d shards, %d windows; want %d, %d, %d", tc.w.name,
				cfg.Nodes, cfg.Shards, cfg.Layout.Windows, tc.nodes, tc.shards, tc.windows)
		}
	}
}
