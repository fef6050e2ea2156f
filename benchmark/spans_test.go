package main

import "testing"

// scriptedClock returns the given instants in order.
func scriptedClock(instants ...int64) func() int64 {
	i := 0
	return func() int64 {
		v := instants[i]
		i++
		return v
	}
}

func TestSpanSelfTimeIsSpanMinusChildren(t *testing.T) {
	// propose [10,100] holds send [20,30], after [40,45] and, inside a second
	// send [50,80], nothing; then a top-level tick [200,260] holds sample [210,250].
	tr := newTracer(scriptedClock(10, 20, 30, 40, 45, 50, 80, 100, 200, 210, 250, 260), 3)
	tr.begin(spanCorePropose, 7)
	tr.begin(spanSend, 7)
	tr.end()
	tr.begin(spanAfter, 7)
	tr.end()
	tr.begin(spanSend, 7)
	tr.end()
	tr.end()
	tr.begin(spanCoreTimer, 8)
	tr.begin(spanMemberSample, 8)
	tr.end()
	tr.end()

	want := map[spanKind]spanStat{
		spanCorePropose:  {Count: 1, TotalNS: 90, SelfNS: 90 - 10 - 5 - 30},
		spanSend:         {Count: 2, TotalNS: 40, SelfNS: 40},
		spanAfter:        {Count: 1, TotalNS: 5, SelfNS: 5},
		spanCoreTimer:    {Count: 1, TotalNS: 60, SelfNS: 20},
		spanMemberSample: {Count: 1, TotalNS: 40, SelfNS: 40},
	}
	var selfSum int64
	for k, got := range tr.stats {
		if got != want[spanKind(k)] {
			t.Errorf("%s: got %+v, want %+v", spanNames[k], got, want[spanKind(k)])
		}
		selfSum += got.SelfNS
	}
	if tr.topNS != 150 || selfSum != tr.topNS {
		t.Errorf("top-level total %d, self times add up to %d, want both 150", tr.topNS, selfSum)
	}
	if tr.depth != 0 {
		t.Errorf("%d spans left open", tr.depth)
	}

	// Only the first three spans are kept raw, each with its parent's index.
	wantRaw := []rawSpan{
		{Name: "core.propose", StartNS: 10, EndNS: 100, Parent: -1, Node: 7},
		{Name: "megasim.send", StartNS: 20, EndNS: 30, Parent: 0, Node: 7},
		{Name: "megasim.after", StartNS: 40, EndNS: 45, Parent: 0, Node: 7},
	}
	if len(tr.raw) != len(wantRaw) {
		t.Fatalf("kept %d raw spans, want %d", len(tr.raw), len(wantRaw))
	}
	for i, got := range tr.raw {
		if got != wantRaw[i] {
			t.Errorf("raw span %d: got %+v, want %+v", i, got, wantRaw[i])
		}
	}
}
