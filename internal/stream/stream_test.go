package stream

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"
	"time"

	"gossipstream/internal/fec"
)

// tinyLayout is a small stream used across tests: 5 windows of 4+2 packets.
func tinyLayout() Layout {
	return Layout{
		RateBps:         80_000, // 10 kB/s
		PayloadBytes:    100,    // => 10ms per packet
		DataPerWindow:   4,
		ParityPerWindow: 2,
		Windows:         5,
	}
}

func TestLayoutValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Layout)
		ok     bool
	}{
		{"default is valid", func(l *Layout) {}, true},
		{"zero rate", func(l *Layout) { l.RateBps = 0 }, false},
		{"zero payload", func(l *Layout) { l.PayloadBytes = 0 }, false},
		{"zero data", func(l *Layout) { l.DataPerWindow = 0 }, false},
		{"negative parity", func(l *Layout) { l.ParityPerWindow = -1 }, false},
		{"zero parity ok", func(l *Layout) { l.ParityPerWindow = 0 }, true},
		{"window too large", func(l *Layout) { l.DataPerWindow = 250; l.ParityPerWindow = 6 }, false},
		{"zero windows", func(l *Layout) { l.Windows = 0 }, false},
		// Ids are 32 bits: the last id of the largest valid stream is
		// MaxUint32 - 26, one more window overflows.
		{"largest id space", func(l *Layout) { *l = DefaultLayout(math.MaxUint32 / 110) }, true},
		{"id overflow", func(l *Layout) { *l = DefaultLayout(math.MaxUint32/110 + 1) }, false},
		{"id overflow by far", func(l *Layout) { *l = DefaultLayout(1 << 40) }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			l := tinyLayout()
			tt.mutate(&l)
			if err := l.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestDefaultLayoutMatchesPaper(t *testing.T) {
	l := DefaultLayout(10)
	if l.RateBps != 600_000 {
		t.Fatalf("rate = %d, want 600 kbps", l.RateBps)
	}
	if l.DataPerWindow != 101 || l.ParityPerWindow != 9 || l.WindowTotal() != 110 {
		t.Fatalf("window shape = %d+%d, want 101+9", l.DataPerWindow, l.ParityPerWindow)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// 101 packets × 1316 B × 8 / 600000 bps ≈ 1.772 s per window.
	if d := l.WindowPublishTime(0); d < 1700*time.Millisecond || d > 1850*time.Millisecond {
		t.Fatalf("first window publish time = %v, want ≈1.77s", d)
	}
}

func TestIDMapping(t *testing.T) {
	l := tinyLayout()
	for w := 0; w < l.Windows; w++ {
		for i := 0; i < l.WindowTotal(); i++ {
			id := l.IDFor(w, i)
			if l.WindowOf(id) != w || l.IndexOf(id) != i {
				t.Fatalf("IDFor(%d,%d) = %d round-trips to (%d,%d)", w, i, id, l.WindowOf(id), l.IndexOf(id))
			}
			if got, want := l.IsParity(id), i >= l.DataPerWindow; got != want {
				t.Fatalf("IsParity(%d) = %v, want %v", id, got, want)
			}
		}
	}
}

func TestPublishSchedule(t *testing.T) {
	l := tinyLayout() // 10ms per data packet
	// First data packet of the stream publishes at 10ms.
	if got := l.PublishTime(l.IDFor(0, 0)); got != 10*time.Millisecond {
		t.Fatalf("first packet publish = %v, want 10ms", got)
	}
	// Last data packet of window 0 publishes at 40ms; parity at the same time.
	if got := l.PublishTime(l.IDFor(0, 3)); got != 40*time.Millisecond {
		t.Fatalf("last data publish = %v, want 40ms", got)
	}
	for i := l.DataPerWindow; i < l.WindowTotal(); i++ {
		if got := l.PublishTime(l.IDFor(0, i)); got != 40*time.Millisecond {
			t.Fatalf("parity %d publish = %v, want 40ms", i, got)
		}
	}
	if got := l.WindowPublishTime(0); got != 40*time.Millisecond {
		t.Fatalf("WindowPublishTime(0) = %v, want 40ms", got)
	}
	// Window 1 data starts at 50ms.
	if got := l.PublishTime(l.IDFor(1, 0)); got != 50*time.Millisecond {
		t.Fatalf("window 1 first packet = %v, want 50ms", got)
	}
	if got := l.Duration(); got != 200*time.Millisecond {
		t.Fatalf("Duration = %v, want 200ms", got)
	}
}

func TestSourceEmitsInOrderAndOnTime(t *testing.T) {
	src, err := NewSource(tinyLayout(), 1)
	if err != nil {
		t.Fatal(err)
	}
	l := src.Layout()
	var all []*Packet
	for tick := time.Duration(0); tick <= l.Duration()+time.Millisecond; tick += 5 * time.Millisecond {
		batch := src.PacketsUntil(tick)
		for _, p := range batch {
			if l.PublishTime(p.ID) > tick {
				t.Fatalf("packet %d emitted at %v before its publish time %v", p.ID, tick, l.PublishTime(p.ID))
			}
		}
		all = append(all, batch...)
	}
	if !src.Done() {
		t.Fatal("source not done after stream duration")
	}
	if len(all) != l.TotalPackets() {
		t.Fatalf("emitted %d packets, want %d", len(all), l.TotalPackets())
	}
	// Publish order: nondecreasing publish times, ids unique.
	seen := make(map[PacketID]bool)
	for i, p := range all {
		if seen[p.ID] {
			t.Fatalf("duplicate packet id %d", p.ID)
		}
		seen[p.ID] = true
		if i > 0 && l.PublishTime(p.ID) < l.PublishTime(all[i-1].ID) {
			t.Fatal("packets emitted out of publish order")
		}
	}
}

func TestSourcePacketsHavePayloadsAndRetrievable(t *testing.T) {
	src, err := NewSource(tinyLayout(), 2)
	if err != nil {
		t.Fatal(err)
	}
	l := src.Layout()
	all := src.PacketsUntil(l.Duration())
	for _, p := range all {
		if len(p.Payload) != l.PayloadBytes {
			t.Fatalf("packet %d payload = %d bytes, want %d", p.ID, len(p.Payload), l.PayloadBytes)
		}
		if got := src.Packet(p.ID); got != p {
			t.Fatalf("Packet(%d) did not return the emitted packet", p.ID)
		}
	}
	if src.Packet(9999) != nil {
		t.Fatal("Packet for unknown id should be nil")
	}
}

func TestSourceDeterministic(t *testing.T) {
	emit := func(seed int64) []*Packet {
		src, err := NewSource(tinyLayout(), seed)
		if err != nil {
			t.Fatal(err)
		}
		return src.PacketsUntil(src.Layout().Duration())
	}
	a, b := emit(7), emit(7)
	for i := range a {
		if a[i].ID != b[i].ID || !bytes.Equal(a[i].Payload, b[i].Payload) {
			t.Fatal("same seed produced different streams")
		}
	}
	c := emit(8)
	if bytes.Equal(a[0].Payload, c[0].Payload) {
		t.Fatal("different seeds produced identical payloads")
	}
}

func TestSourceParityDecodesToData(t *testing.T) {
	// End-to-end FEC check: drop ParityPerWindow data packets from each
	// window, reconstruct from the rest, compare payloads.
	src, err := NewSource(tinyLayout(), 3)
	if err != nil {
		t.Fatal(err)
	}
	l := src.Layout()
	code, err := fec.New(l.DataPerWindow, l.ParityPerWindow)
	if err != nil {
		t.Fatal(err)
	}
	shares := make([][]fec.Share, l.Windows)
	for _, p := range src.PacketsUntil(l.Duration()) {
		// Drop data packets 0 and 2 of every window (= ParityPerWindow losses).
		if !p.Parity && (p.Index == 0 || p.Index == 2) {
			continue
		}
		shares[p.Window] = append(shares[p.Window], fec.Share{Index: int(p.Index), Data: p.Payload})
	}
	for w := 0; w < l.Windows; w++ {
		data, err := code.Reconstruct(shares[w])
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		for i := 0; i < l.DataPerWindow; i++ {
			want := src.Packet(l.IDFor(w, i)).Payload
			if !bytes.Equal(data[i], want) {
				t.Fatalf("window %d data %d mismatch after FEC decode", w, i)
			}
		}
	}
}

func TestSourceNoFEC(t *testing.T) {
	l := tinyLayout()
	l.ParityPerWindow = 0
	src, err := NewSource(l, 4)
	if err != nil {
		t.Fatal(err)
	}
	all := src.PacketsUntil(l.Duration())
	if len(all) != l.Windows*l.DataPerWindow {
		t.Fatalf("no-FEC stream emitted %d packets, want %d", len(all), l.Windows*l.DataPerWindow)
	}
	for _, p := range all {
		if p.Parity {
			t.Fatal("no-FEC stream emitted a parity packet")
		}
	}
}

func TestSourceInvalidLayout(t *testing.T) {
	if _, err := NewSource(Layout{}, 1); err == nil {
		t.Fatal("NewSource accepted invalid layout")
	}
}

func TestReceiverCompletion(t *testing.T) {
	l := tinyLayout()
	r := NewReceiver(l)
	// Deliver 3 of 4 needed packets: window incomplete.
	now := 100 * time.Millisecond
	for i := 0; i < 3; i++ {
		if !r.Deliver(l.IDFor(0, i), now) {
			t.Fatalf("fresh delivery %d rejected", i)
		}
	}
	if _, ok := r.CompletionTime(0); ok {
		t.Fatal("window complete with 3/4 packets")
	}
	// Fourth packet can be parity: completion = DataPerWindow distinct.
	if !r.Deliver(l.IDFor(0, 5), 150*time.Millisecond) {
		t.Fatal("parity delivery rejected")
	}
	got, ok := r.CompletionTime(0)
	if !ok || got != 150*time.Millisecond {
		t.Fatalf("completion = %v ok=%v, want 150ms true", got, ok)
	}
	// Lag = completion - WindowPublishTime(0) = 150ms - 40ms.
	lag, ok := r.Lag(0)
	if !ok || lag != 110*time.Millisecond {
		t.Fatalf("lag = %v ok=%v, want 110ms true", lag, ok)
	}
}

func TestReceiverDuplicatesIgnored(t *testing.T) {
	l := tinyLayout()
	r := NewReceiver(l)
	id := l.IDFor(1, 2)
	if !r.Deliver(id, time.Millisecond) {
		t.Fatal("first delivery rejected")
	}
	if r.Deliver(id, 2*time.Millisecond) {
		t.Fatal("duplicate delivery accepted")
	}
	if r.Count(1) != 1 || r.Delivered() != 1 {
		t.Fatalf("count=%d delivered=%d after duplicate, want 1 1", r.Count(1), r.Delivered())
	}
	if !r.Has(id) || r.Has(l.IDFor(1, 3)) {
		t.Fatal("Has() wrong")
	}
}

// TestReceiverOneBitsetBacking pins the receiver's memory shape: its
// windows share one bitset, so building a receiver (or a snapshot)
// allocates as much for 60 windows as for 2, and no window's bits reach
// into its neighbour's — with windows of exactly one word and of two, once
// every id of window w is delivered, no id of window w+1 answers Has and
// its count stays zero.
func TestReceiverOneBitsetBacking(t *testing.T) {
	l := tinyLayout()
	allocs := func(windows int) (build, snap float64) {
		l.Windows = windows
		r := NewReceiver(l)
		return testing.AllocsPerRun(20, func() { NewReceiver(l) }), testing.AllocsPerRun(20, func() { r.Snapshot() })
	}
	b2, s2 := allocs(2)
	if b60, s60 := allocs(60); b60 != b2 || s60 != s2 {
		t.Fatalf("NewReceiver allocates %v for 2 windows and %v for 60, Snapshot %v and %v: want the same", b2, b60, s2, s60)
	}
	for _, total := range []int{64, 110} {
		l := Layout{RateBps: 600_000, PayloadBytes: 64, DataPerWindow: total - 4, ParityPerWindow: 4, Windows: 4}
		r := NewReceiver(l)
		for w := 0; w < l.Windows; w++ {
			for i := 0; i < total; i++ {
				r.Deliver(l.IDFor(w, i), time.Second)
			}
			if w+1 == l.Windows {
				break
			}
			if r.Count(w+1) != 0 {
				t.Fatalf("%d-packet windows: delivering window %d counted %d packets in window %d", total, w, r.Count(w+1), w+1)
			}
			for i := 0; i < total; i++ {
				if r.Has(l.IDFor(w+1, i)) {
					t.Fatalf("%d-packet windows: delivering window %d made id %d of window %d answer Has", total, w, i, w+1)
				}
			}
		}
		r = NewReceiver(l)
		r.Deliver(l.IDFor(3, total-1), time.Second)
		cp := r.Snapshot()
		cp.Deliver(l.IDFor(0, 0), time.Second)
		if r.Has(l.IDFor(0, 0)) || r.Count(0) != 0 || !cp.Has(l.IDFor(3, total-1)) || cp.Count(3) != 1 {
			t.Fatalf("%d-packet windows: the snapshot shares bits with the receiver, or lost some", total)
		}
	}
}

func TestReceiverOutOfRangeIDs(t *testing.T) {
	l := tinyLayout()
	r := NewReceiver(l)
	if r.Deliver(PacketID(l.TotalPackets()), time.Millisecond) {
		t.Fatal("delivery beyond stream accepted")
	}
	if r.Has(PacketID(l.TotalPackets() + 5)) {
		t.Fatal("Has beyond stream true")
	}
}

func TestReceiverLagClampsToZero(t *testing.T) {
	// A window completing before its own publish time (possible only for
	// clock skew in tests) reports zero lag, not negative.
	l := tinyLayout()
	r := NewReceiver(l)
	for i := 0; i < l.DataPerWindow; i++ {
		r.Deliver(l.IDFor(0, i), time.Millisecond)
	}
	lag, ok := r.Lag(0)
	if !ok || lag != 0 {
		t.Fatalf("lag = %v ok=%v, want 0 true", lag, ok)
	}
}

// Property: delivering any permutation of any subset of packets yields
// count == |subset ∩ window| per window, and completion iff count ≥ k.
func TestReceiverCountProperty(t *testing.T) {
	l := tinyLayout()
	f := func(seed int64, keepMask uint64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewReceiver(l)
		total := l.TotalPackets()
		perm := rng.Perm(total)
		want := make(map[int]int)
		for _, p := range perm {
			if keepMask&(1<<uint(p%64)) == 0 {
				continue
			}
			id := PacketID(p)
			if !r.Deliver(id, time.Duration(p)*time.Millisecond) {
				return false
			}
			want[l.WindowOf(id)]++
		}
		for w := 0; w < l.Windows; w++ {
			if r.Count(w) != want[w] {
				return false
			}
			_, ok := r.CompletionTime(w)
			if ok != (want[w] >= l.DataPerWindow) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPublishUntilMatchesPacketsUntil checks that the id cursor publishes
// exactly the ids PacketsUntil returns packets for, and that packets asked
// for only after the whole stream was published carry the bytes they
// always had: windows are built in order, whenever they are first asked
// for. The digests are of every payload in publish order, as the source
// that built each packet at its publish time produced them.
func TestPublishUntilMatchesPacketsUntil(t *testing.T) {
	for _, tc := range []struct {
		layout Layout
		digest string
	}{{tinyLayout(), "e32347f1131993b9"}, {DefaultLayout(3), "509d0f7671901efc"}} {
		a, err := NewSource(tc.layout, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewSource(tc.layout, 7)
		if err != nil {
			t.Fatal(err)
		}
		l := a.Layout()
		eager := sha256.New()
		for now := time.Duration(0); !a.Done(); now = min(now+l.PacketTime()/3, l.Duration()) {
			want := a.PacketsUntil(now)
			first, end := b.PublishUntil(now)
			if int(end-first) != len(want) {
				t.Fatalf("at %v: the cursor published %d ids, PacketsUntil %d packets", now, end-first, len(want))
			}
			for i, p := range want {
				if p.ID != first+PacketID(i) {
					t.Fatalf("at %v: packet %d is id %d, the cursor published %d", now, i, p.ID, first+PacketID(i))
				}
				eager.Write(p.Payload)
			}
		}
		if !b.Done() {
			t.Fatal("the cursor did not finish with PacketsUntil")
		}
		lazy := sha256.New()
		for id := 0; id < l.TotalPackets(); id++ {
			p := b.Packet(PacketID(id))
			if p.ID != PacketID(id) || !bytes.Equal(p.Payload, a.Packet(PacketID(id)).Payload) {
				t.Fatalf("packet %d built after the stream was published differs from the one built as it went", id)
			}
			lazy.Write(p.Payload)
		}
		if got := fmt.Sprintf("%x", eager.Sum(nil)[:8]); got != tc.digest {
			t.Fatalf("%d windows: payload digest %s, want %s", l.Windows, got, tc.digest)
		}
		if !bytes.Equal(eager.Sum(nil), lazy.Sum(nil)) {
			t.Fatal("payload digests of the eager and the lazy source differ")
		}
	}
}

// TestSimulatedSourceAllocBudget holds a simulated source — one that only
// publishes ids — to what it needs: publishing every id of a 1,000-window
// stream (≈30 minutes of the paper's) through the cursor costs a constant
// number of allocations and a handful of bytes, and builds no payload.
// Before, the source drew and FEC-encoded every window as it went and
// kept all of them, ≈165 MB at this length.
func TestSimulatedSourceAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	// The counts are process-wide: a collection during the run, or another
	// goroutine running beside it (the testing package's own), can charge
	// it allocations the source does not make.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	l := DefaultLayout(1000)
	var src *Source
	var published int
	run := func() {
		var err error
		if src, err = NewSource(l, 1); err != nil {
			t.Fatal(err)
		}
		published = 0
		for now := time.Duration(0); !src.Done(); now += 200 * time.Millisecond {
			first, end := src.PublishUntil(now)
			published += int(end - first)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("publishing %d ids of %d windows: %d allocations, %d B", published, l.Windows, allocs, bytes)
	if published != l.TotalPackets() {
		t.Fatalf("published %d ids, want %d", published, l.TotalPackets())
	}
	if allocs > 2 || bytes > uint64(l.Windows) {
		t.Fatalf("%d allocations and %d B for a %d-window stream: want at most 2, and at most a byte per window", allocs, bytes, l.Windows)
	}
	if src.windows != nil || src.rng != nil || src.code != nil {
		t.Fatal("publishing ids built packets, a payload stream or an FEC code")
	}
}

func BenchmarkReceiverDeliver(b *testing.B) {
	l := DefaultLayout(1000)
	r := NewReceiver(l)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Deliver(PacketID(i%l.TotalPackets()), time.Duration(i))
	}
}
