package main

import (
	"testing"

	gs "gossipstream"
)

// The twin's wrappers must be transparent: same events as RunExperiment on
// the same deployment, for every kind of deployment a traced pass twins.
func TestTracedTwinFiresTheEventsOfRunExperiment(t *testing.T) {
	for _, w := range workloads {
		dep := twinDeployment(w.build(5, toyScale))
		ref, err := gs.RunExperiment(dep)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		twin, err := runTwin(dep)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if twin.events != ref.Events {
			t.Errorf("%s: twin fired %d events, RunExperiment %d", w.name, twin.events, ref.Events)
		}
		var self int64
		for _, st := range twin.stats {
			self += st.SelfNS
		}
		if self != twin.topNS || float64(twin.topNS) > twin.shardWall() {
			t.Errorf("%s: self times add up to %d ns, top-level spans to %d ns, shard wall is %.0f ns", w.name, self, twin.topNS, twin.shardWall())
		}
		if twin.stats[spanCoreServe].Count == 0 || twin.stats[spanSend].Count == 0 || twin.stats[spanCoreTimer].Count == 0 {
			t.Errorf("%s: the twin recorded no core or engine spans: %+v", w.name, twin.stats)
		}
		cyclon := dep.Membership == gs.MembershipCyclon
		if (twin.stats[spanPssTick].Count > 0) != cyclon || (twin.stats[spanMemberSample].Count > 0) == cyclon {
			t.Errorf("%s: membership spans do not match the deployment (cyclon=%v): %+v", w.name, cyclon, twin.stats)
		}
	}
}

func TestTwinRefusesWhatItDoesNotReplicate(t *testing.T) {
	if _, err := runTwin(cyclonChurn.build(1, toyScale)); err == nil {
		t.Error("runTwin accepted a deployment with sustained churn")
	}
}
