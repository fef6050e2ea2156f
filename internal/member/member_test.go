package member

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gossipstream/internal/wire"
)

func TestViewRefreshEveryCall(t *testing.T) {
	// X = 1: partner sets should change essentially every round.
	rng := rand.New(rand.NewSource(5))
	v := NewView(NewSparseView(0, 200, rng), 7, 1, rng)
	changes := 0
	prev := append([]wire.NodeID(nil), v.Partners()...)
	for i := 0; i < 50; i++ {
		cur := v.Partners()
		if !sameSet(prev, cur) {
			changes++
		}
		prev = append(prev[:0], cur...)
	}
	if changes < 45 {
		t.Fatalf("X=1 changed partners only %d/50 rounds", changes)
	}
}

func TestViewRefreshEveryX(t *testing.T) {
	// X = 5: partners must be stable within each 5-call window and change
	// across windows (with overwhelming probability for n=200).
	rng := rand.New(rand.NewSource(6))
	v := NewView(NewSparseView(0, 200, rng), 7, 5, rng)
	var windows [][]wire.NodeID
	for w := 0; w < 4; w++ {
		first := append([]wire.NodeID(nil), v.Partners()...)
		for c := 1; c < 5; c++ {
			if !sameSet(first, v.Partners()) {
				t.Fatalf("partners changed within window %d call %d (X=5)", w, c)
			}
		}
		windows = append(windows, first)
	}
	if sameSet(windows[0], windows[1]) && sameSet(windows[1], windows[2]) {
		t.Fatal("partners never changed across X=5 windows")
	}
}

func TestViewNeverRefreshes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := NewView(NewSparseView(0, 200, rng), 7, Never, rng)
	first := append([]wire.NodeID(nil), v.Partners()...)
	for i := 0; i < 100; i++ {
		if !sameSet(first, v.Partners()) {
			t.Fatal("X=Never view changed partners")
		}
	}
	if v.Calls() != 101 {
		t.Fatalf("Calls() = %d, want 101", v.Calls())
	}
}

func TestViewCurrentDoesNotAdvance(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	v := NewView(NewSparseView(0, 50, rng), 3, 1, rng)
	cur := append([]wire.NodeID(nil), v.Current()...)
	if !sameSet(cur, v.Current()) {
		t.Fatal("Current() changed the partner set")
	}
	if v.Calls() != 0 {
		t.Fatalf("Current() advanced Calls to %d", v.Calls())
	}
}

func TestViewInsertReplacesOnePartner(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	v := NewView(NewSparseView(0, 100, rng), 5, Never, rng)
	before := append([]wire.NodeID(nil), v.Current()...)
	requester := wire.NodeID(99)
	for contains(before, requester) {
		t.Skip("unlucky draw included requester") // deterministic seed: never happens
	}
	v.Insert(requester)
	after := v.Current()
	if !contains(after, requester) {
		t.Fatal("Insert did not add requester")
	}
	if len(after) != len(before) {
		t.Fatalf("Insert changed view size %d → %d", len(before), len(after))
	}
	diff := 0
	for _, id := range before {
		if !contains(after, id) {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("Insert replaced %d partners, want exactly 1", diff)
	}
}

func TestViewInsertIdempotentForExistingPartner(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	v := NewView(NewSparseView(0, 10, rng), 5, Never, rng)
	before := append([]wire.NodeID(nil), v.Current()...)
	v.Insert(before[2])
	if !sameSet(before, v.Current()) {
		t.Fatal("inserting an existing partner changed the view")
	}
}

func TestViewPanicsOnBadParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewSparseView(0, 10, rng)
	for _, tc := range []struct {
		name            string
		fanout, refresh int
	}{
		{"zero fanout", 0, 1},
		{"negative refresh", 3, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			NewView(s, tc.fanout, tc.refresh, rng)
		})
	}
}

// Property: under any X ≥ 1, the partner set changes only at call indexes
// that are multiples of X.
func TestViewRefreshScheduleProperty(t *testing.T) {
	f := func(xRaw uint8, seed int64) bool {
		x := int(xRaw%10) + 1
		rng := rand.New(rand.NewSource(seed))
		v := NewView(NewSparseView(0, 300, rng), 6, x, rng)
		prev := append([]wire.NodeID(nil), v.Partners()...)
		for call := 1; call < 40; call++ {
			cur := v.Partners()
			if call%x != 0 && !sameSet(prev, cur) {
				return false // changed mid-window
			}
			prev = append(prev[:0], cur...)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func sameSet(a, b []wire.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[wire.NodeID]bool, len(a))
	for _, id := range a {
		m[id] = true
	}
	for _, id := range b {
		if !m[id] {
			return false
		}
	}
	return true
}

func contains(s []wire.NodeID, id wire.NodeID) bool {
	for _, v := range s {
		if v == id {
			return true
		}
	}
	return false
}

func TestSparseViewExcludesSelfAndDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := NewSparseView(5, 1000, rng)
	for trial := 0; trial < 200; trial++ {
		got := v.Sample(7)
		if len(got) != 7 {
			t.Fatalf("len = %d, want 7", len(got))
		}
		seen := map[wire.NodeID]bool{}
		for _, id := range got {
			if id == 5 {
				t.Fatal("sample contains self")
			}
			if id < 0 || id >= 1000 {
				t.Fatalf("sample contains out-of-range id %d", id)
			}
			if seen[id] {
				t.Fatalf("duplicate id %d", id)
			}
			seen[id] = true
		}
	}
}

func TestSparseViewClampsToPopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v := NewSparseView(0, 5, rng)
	got := v.Sample(10)
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4 (population minus self)", len(got))
	}
	if v.Sample(0) != nil {
		t.Fatal("Sample(0) should be nil")
	}
}

func TestSparseViewDensePathExcludesSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := NewSparseView(2, 6, rng)
	for trial := 0; trial < 100; trial++ {
		got := v.Sample(4) // 2k >= n: Fisher–Yates path
		seen := map[wire.NodeID]bool{}
		for _, id := range got {
			if id == 2 || seen[id] {
				t.Fatalf("bad dense sample %v", got)
			}
			seen[id] = true
		}
	}
}

func TestSparseViewUniformity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 50
	v := NewSparseView(0, n, rng)
	counts := make([]int, n)
	const rounds = 20000
	for i := 0; i < rounds; i++ {
		for _, id := range v.Sample(5) {
			counts[id]++
		}
	}
	want := float64(rounds*5) / float64(n-1)
	for id := 1; id < n; id++ {
		if f := float64(counts[id]); f < want*0.9 || f > want*1.1 {
			t.Fatalf("node %d drawn %v times, want ≈ %v", id, f, want)
		}
	}
	if counts[0] != 0 {
		t.Fatal("self was drawn")
	}
}

func TestSparseViewInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for n=0")
		}
	}()
	NewSparseView(0, 0, rand.New(rand.NewSource(1)))
}

// sampleOnly hides everything of a sampler but Sample, as a wrapper that
// knows only the Sampler interface does.
type sampleOnly struct{ s Sampler }

func (w sampleOnly) Sample(k int) []wire.NodeID { return w.s.Sample(k) }

// TestViewReusesPartnerBuffer checks the View's two ways of refreshing its
// partners against each other: over a SparseView it draws into its own
// buffer, over a wrapped one it takes the fresh list Sample allocates. Both
// must yield the same partners round for round, on the sparse and on the
// dense sampling path, with feed-me insertions in between.
func TestViewReusesPartnerBuffer(t *testing.T) {
	for _, n := range []int{2000, 9} { // fanout 7 of 9 takes the dense path
		direct := NewView(NewSparseView(1, n, rand.New(rand.NewSource(5))), 7, 1, rand.New(rand.NewSource(6)))
		wrapped := NewView(sampleOnly{NewSparseView(1, n, rand.New(rand.NewSource(5)))}, 7, 1, rand.New(rand.NewSource(6)))
		if direct.into == nil || wrapped.into != nil {
			t.Fatal("the View did not pick the refresh path the sampler offers")
		}
		var last *wire.NodeID
		for round := 0; round < 50; round++ {
			a, b := direct.Partners(), wrapped.Partners()
			if len(a) != 7 || !slices.Equal(a, b) {
				t.Fatalf("n=%d round %d: partners %v drawn in place, %v drawn fresh", n, round, a, b)
			}
			if last != nil && &a[0] != last {
				t.Fatalf("n=%d round %d: the partner buffer was not reused", n, round)
			}
			last = &a[0]
			direct.Insert(wire.NodeID(round%n + 2))
			wrapped.Insert(wire.NodeID(round%n + 2))
		}
	}
}
