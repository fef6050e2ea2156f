package wire

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"gossipstream/internal/stream"
)

func testLayout() stream.Layout {
	return stream.Layout{
		RateBps:         600_000,
		PayloadBytes:    1250,
		DataPerWindow:   101,
		ParityPerWindow: 9,
		Windows:         100,
	}
}

func TestKindString(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{KindPropose, "PROPOSE"},
		{KindRequest, "REQUEST"},
		{KindServe, "SERVE"},
		{KindFeedMe, "FEED-ME"},
		{Kind(99), "Kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.kind, got, tt.want)
		}
	}
}

func TestWireSizes(t *testing.T) {
	pkt := &stream.Packet{ID: 1, Payload: make([]byte, 1250)}
	tests := []struct {
		name string
		msg  Message
		want int
	}{
		{"empty propose", Propose{}, 28 + 7},
		{"propose 12 ids", Propose{IDs: make([]stream.PacketID, 12)}, 28 + 7 + 48},
		{"request 3 ids", Request{IDs: make([]stream.PacketID, 3)}, 28 + 7 + 12},
		{"serve one packet", Serve{Packets: []*stream.Packet{pkt}}, 28 + 7 + 6 + 1250},
		{"feed-me", FeedMe{}, 28 + 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.msg.WireSize(); got != tt.want {
				t.Fatalf("WireSize() = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestEncodeDecodePropose(t *testing.T) {
	c := NewCodec(testLayout())
	in := Propose{IDs: []stream.PacketID{0, 1, 42, 1 << 30}}
	buf, err := c.Encode(17, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != in.WireSize()-UDPOverheadBytes {
		t.Fatalf("encoded %d bytes, want WireSize-overhead %d", len(buf), in.WireSize()-UDPOverheadBytes)
	}
	sender, out, err := c.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if sender != 17 {
		t.Fatalf("sender = %d, want 17", sender)
	}
	got, ok := out.(Propose)
	if !ok {
		t.Fatalf("decoded %T, want Propose", out)
	}
	if len(got.IDs) != len(in.IDs) {
		t.Fatalf("decoded %d ids, want %d", len(got.IDs), len(in.IDs))
	}
	for i := range in.IDs {
		if got.IDs[i] != in.IDs[i] {
			t.Fatalf("id[%d] = %d, want %d", i, got.IDs[i], in.IDs[i])
		}
	}
}

func TestEncodeDecodeRequest(t *testing.T) {
	c := NewCodec(testLayout())
	in := Request{IDs: []stream.PacketID{7}}
	buf, err := c.Encode(3, in)
	if err != nil {
		t.Fatal(err)
	}
	_, out, err := c.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := out.(Request)
	if !ok || got.IDs[0] != 7 {
		t.Fatalf("decoded %#v, want Request{[7]}", out)
	}
}

func TestEncodeDecodeServe(t *testing.T) {
	l := testLayout()
	c := NewCodec(l)
	id := l.IDFor(3, 105) // a parity packet
	in := Serve{Packets: []*stream.Packet{{
		ID:      id,
		Window:  3,
		Index:   105,
		Parity:  true,
		Payload: bytes.Repeat([]byte{0xAB}, 600),
	}}}
	buf, err := c.Encode(9, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != in.WireSize()-UDPOverheadBytes {
		t.Fatalf("encoded %d bytes, want %d", len(buf), in.WireSize()-UDPOverheadBytes)
	}
	sender, out, err := c.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if sender != 9 {
		t.Fatalf("sender = %d, want 9", sender)
	}
	got := out.(Serve)
	p := got.Packets[0]
	if p.ID != id || p.Window != 3 || p.Index != 105 || !p.Parity {
		t.Fatalf("metadata not rebuilt from layout: %+v", p)
	}
	if !bytes.Equal(p.Payload, in.Packets[0].Payload) {
		t.Fatal("payload mismatch")
	}
}

func TestEncodeDecodeFeedMe(t *testing.T) {
	c := NewCodec(testLayout())
	buf, err := c.Encode(255, FeedMe{})
	if err != nil {
		t.Fatal(err)
	}
	sender, out, err := c.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out.(FeedMe); !ok || sender != 255 {
		t.Fatalf("decoded %T from %d, want FeedMe from 255", out, sender)
	}
}

func TestEncodeTooManyIDs(t *testing.T) {
	c := NewCodec(testLayout())
	if _, err := c.Encode(0, Propose{IDs: make([]stream.PacketID, MaxIDsPerMessage+1)}); err == nil {
		t.Fatal("oversized propose accepted")
	}
}

func TestEncodeServeOverMTU(t *testing.T) {
	c := NewCodec(testLayout())
	big := Serve{Packets: []*stream.Packet{
		{ID: 1, Payload: make([]byte, 1250)},
		{ID: 2, Payload: make([]byte, 1250)},
	}}
	if _, err := c.Encode(0, big); err == nil {
		t.Fatal("over-MTU serve accepted")
	}
}

func TestDecodeTruncated(t *testing.T) {
	c := NewCodec(testLayout())
	buf, err := c.Encode(1, Propose{IDs: []stream.PacketID{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{buf[:0], buf[:3], buf[:len(buf)-1], forgedServe} {
		if _, _, err := c.Decode(data); !errors.Is(err, ErrTruncated) {
			t.Fatalf("Decode(%x) error = %v, want ErrTruncated", data, err)
		}
	}
}

func TestDecodeTruncatedServePayload(t *testing.T) {
	c := NewCodec(testLayout())
	buf, err := c.Encode(1, Serve{Packets: []*stream.Packet{{ID: 5, Payload: make([]byte, 100)}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Decode(buf[:len(buf)-10]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("error = %v, want ErrTruncated", err)
	}
}

func TestDecodeUnknownKind(t *testing.T) {
	c := NewCodec(testLayout())
	buf := make([]byte, headerBytes)
	buf[0] = 200
	if _, _, err := c.Decode(buf); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestDecodeOversized(t *testing.T) {
	c := NewCodec(testLayout())
	full, err := c.Encode(1, Serve{Packets: []*stream.Packet{{ID: 1, Payload: make([]byte, MTUBytes-headerBytes-packetHeaderBytes)}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Decode(full); err != nil {
		t.Fatalf("an MTU-sized datagram failed to decode: %v", err)
	}
	if _, _, err := c.Decode(append(full, 0)); err == nil {
		t.Fatal("a datagram one byte beyond the MTU decoded")
	}
}

// forgedServe is a bare SERVE header announcing 65535 packets. Decode used
// to size the packet list from that count and allocate 512 KB before
// failing as truncated; as a FuzzCodec seed it is held to decodeAllocBound.
var forgedServe = []byte{byte(KindServe), 0, 0, 0, 1, 0xff, 0xff}

// decodeAllocBound is what one Decode of an n-byte datagram may allocate.
// The costliest datagram per byte is a SERVE of empty packets: each 6-byte
// packet header becomes a 48-byte Packet and an 8-byte list slot, ≈9.4
// bytes per datagram byte. The constant covers boxing the message.
func decodeAllocBound(n int) uint64 { return 12*uint64(n) + 256 }

// decodeBytes reports the heap bytes one Decode of data allocates. The
// heap counters are process-wide, so whatever another goroutine allocates
// meanwhile adds to a measurement; the least of a few is the one to trust.
func decodeBytes(c *Codec, data []byte) uint64 {
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&before)
		c.Decode(data)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzCodec feeds Decode arbitrary datagrams: nothing panics, truncated and
// oversized ones return an error, no datagram makes Decode allocate beyond
// decodeAllocBound of its length, and whatever decodes re-encodes to a
// datagram that decodes to the same sender and message. Not to the same
// bytes: Decode ignores bytes after the declared contents and reads a
// SHUFFLE flag other than 1 as a request. Neither is rejected, on purpose —
// a receiver acts on the decoded message alone, so both are harmless.
func FuzzCodec(f *testing.F) {
	l := testLayout()
	c := NewCodec(l)
	for _, msg := range []Message{
		Propose{IDs: []stream.PacketID{0, 1, 42, 1 << 30}},
		Request{IDs: []stream.PacketID{7}},
		Serve{Packets: []*stream.Packet{{ID: l.IDFor(3, 105), Payload: bytes.Repeat([]byte{0xAB}, 600)}}},
		Serve{Packets: []*stream.Packet{{ID: 5, Payload: make([]byte, 100)}, {ID: 6}}},
		FeedMe{},
		Leave{},
		Shuffle{Reply: true, Entries: []ShuffleEntry{{ID: 4, Age: 2}, {ID: 9}}},
	} {
		buf, err := c.Encode(17, msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add(forgedServe)
	f.Fuzz(func(t *testing.T, data []byte) {
		sender, msg, err := c.Decode(data)
		if got, bound := decodeBytes(c, data), decodeAllocBound(len(data)); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		if err != nil {
			return
		}
		buf, err := c.Encode(sender, msg)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", msg, err)
		}
		again, msgAgain, err := c.Decode(buf)
		if err != nil || again != sender || !reflect.DeepEqual(msgAgain, msg) {
			t.Fatalf("decoded %#v from %d; its encoding decodes to %#v from %d (error %v)", msg, sender, msgAgain, again, err)
		}
	})
}

func TestCutIDs(t *testing.T) {
	ids := make([]stream.PacketID, MaxIDsPerMessage*2+5)
	for i := range ids {
		ids[i] = stream.PacketID(i)
	}
	var sizes []int
	next := stream.PacketID(0)
	for rest := ids; len(rest) > 0; {
		var chunk []stream.PacketID
		chunk, rest = CutIDs(rest)
		for _, id := range chunk {
			if id != next {
				t.Fatalf("chunk %d carries id %d, want %d", len(sizes), id, next)
			}
			next++
		}
		sizes = append(sizes, len(chunk))
	}
	if want := []int{MaxIDsPerMessage, MaxIDsPerMessage, 5}; !slices.Equal(sizes, want) {
		t.Fatalf("chunk sizes %v, want %v", sizes, want)
	}
	// Small lists pass through as a single chunk without copying.
	small := []stream.PacketID{1, 2}
	if chunk, rest := CutIDs(small); len(chunk) != 2 || &chunk[0] != &small[0] || len(rest) != 0 {
		t.Fatal("small list not passed through")
	}
}

// TestCutPackets pins the MTU cut at its edges: a chunk fills the datagram
// exactly, an oversized packet travels alone, nothing is copied, and no
// allocation happens however long the list.
func TestCutPackets(t *testing.T) {
	pkt := func(payload int) *stream.Packet { return &stream.Packet{Payload: make([]byte, payload)} }
	room := MTUBytes - headerBytes
	exact := []*stream.Packet{pkt(room/2 - packetHeaderBytes), pkt(room - room/2 - packetHeaderBytes), pkt(1)}
	chunk, rest := CutPackets(exact)
	if len(chunk) != 2 || len(rest) != 1 || (Serve{Packets: chunk}).WireSize()-UDPOverheadBytes != MTUBytes {
		t.Fatalf("two packets filling the MTU exactly were cut %d+%d", len(chunk), len(rest))
	}
	if &chunk[0] != &exact[0] || &rest[0] != &exact[2] {
		t.Fatal("the cut copied instead of aliasing its input")
	}
	chunk, rest = CutPackets([]*stream.Packet{pkt(2 * MTUBytes), pkt(1)})
	if len(chunk) != 1 || len(rest) != 1 {
		t.Fatalf("an oversized packet was cut %d+%d, want alone", len(chunk), len(rest))
	}
	if chunk, rest = CutPackets(nil); len(chunk) != 0 || len(rest) != 0 {
		t.Fatalf("nothing was cut %d+%d", len(chunk), len(rest))
	}
	many := make([]*stream.Packet, 1000)
	for i := range many {
		many[i] = pkt(600)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for rest := many; len(rest) > 0; {
			_, rest = CutPackets(rest)
		}
	}); allocs != 0 {
		t.Fatalf("cutting allocates %v times", allocs)
	}
}

// TestServeIDsCutAndChargedAsPackets holds the id form of a SERVE to the
// packet form: for payload widths from empty to past the MTU — the paper's
// 1316 among them — and lists up to several datagrams long, CutServeIDs
// cuts the chunks CutPackets cuts from the same packets, and ServeSize
// charges each what its Serve's WireSize does.
func TestServeIDsCutAndChargedAsPackets(t *testing.T) {
	for _, width := range []int{0, 1, 100, 357, 358, 700, 1316, MTUBytes, 2 * MTUBytes} {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 17, 300} {
			pkts := make([]*stream.Packet, n)
			ids := make([]stream.PacketID, n)
			for i := range pkts {
				pkts[i] = &stream.Packet{ID: stream.PacketID(i), Payload: make([]byte, width)}
				ids[i] = stream.PacketID(i)
			}
			for len(pkts) > 0 || len(ids) > 0 {
				var pc []*stream.Packet
				var ic []stream.PacketID
				pc, pkts = CutPackets(pkts)
				ic, ids = CutServeIDs(ids, width)
				if len(pc) != len(ic) || len(pc) == 0 {
					t.Fatalf("width %d, %d packets: CutPackets cut %d, CutServeIDs %d", width, n, len(pc), len(ic))
				}
				if got, want := ServeSize(len(ic), width), (Serve{Packets: pc}).WireSize(); got != want {
					t.Fatalf("width %d: ServeSize(%d) = %d, WireSize %d", width, len(ic), got, want)
				}
			}
		}
	}
}

func TestSplitServe(t *testing.T) {
	var packets []*stream.Packet
	for i := 0; i < 5; i++ {
		packets = append(packets, &stream.Packet{ID: stream.PacketID(i), Payload: make([]byte, 600)})
	}
	serves := SplitServeInto(nil, packets)
	total := 0
	for _, s := range serves {
		if s.WireSize()-UDPOverheadBytes > MTUBytes {
			t.Fatalf("split serve still exceeds MTU: %d", s.WireSize())
		}
		total += len(s.Packets)
	}
	if total != len(packets) {
		t.Fatalf("split serves carry %d packets, want %d", total, len(packets))
	}
	if len(serves) != 3 { // 2+2+1 at 600-byte payloads within 1472 MTU
		t.Fatalf("got %d serves, want 3", len(serves))
	}
}

func TestSplitServeEmpty(t *testing.T) {
	if got := SplitServeInto(nil, nil); got != nil {
		t.Fatalf("SplitServeInto(nil, nil) = %v, want nil", got)
	}
}

// TestSplitServeIntoReusesDst checks the destination contract: existing
// entries are preserved, and a recycled [:0] scratch grows in place.
func TestSplitServeIntoReusesDst(t *testing.T) {
	var packets []*stream.Packet
	for i := 0; i < 5; i++ {
		packets = append(packets, &stream.Packet{ID: stream.PacketID(i), Payload: make([]byte, 600)})
	}
	sentinel := Serve{Packets: []*stream.Packet{{ID: 99}}}
	out := SplitServeInto([]Serve{sentinel}, packets)
	if len(out) != 4 || len(out[0].Packets) != 1 || out[0].Packets[0].ID != 99 {
		t.Fatalf("dst prefix not preserved: %d serves", len(out))
	}
	total := 0
	for _, s := range out[1:] {
		total += len(s.Packets)
	}
	if total != len(packets) {
		t.Fatalf("split serves carry %d packets, want %d", total, len(packets))
	}
}

// TestSplitServeIntoPooledBackings checks the ownership protocol: every
// batch gets the pool's fixed-capacity backing (so RecycleServe can
// recognize it), the packet bound is exact at minimum packet size, and
// recycling foreign or already-degenerate slices is a safe no-op.
func TestSplitServeIntoPooledBackings(t *testing.T) {
	// Empty payloads hit the worst-case packet count per message.
	var packets []*stream.Packet
	for i := 0; i < 3*maxPacketsPerServe; i++ {
		packets = append(packets, &stream.Packet{ID: stream.PacketID(i)})
	}
	out := SplitServeInto(nil, packets)
	if len(out) != 3 {
		t.Fatalf("got %d serves, want 3 full ones", len(out))
	}
	for i, s := range out {
		if len(s.Packets) != maxPacketsPerServe {
			t.Fatalf("serve %d carries %d packets, want %d", i, len(s.Packets), maxPacketsPerServe)
		}
		if cap(s.Packets) != maxPacketsPerServe {
			t.Fatalf("serve %d backing capacity %d escaped the pool bound %d", i, cap(s.Packets), maxPacketsPerServe)
		}
		RecycleServe(s)
	}
	// Foreign backings (not pool-sized) are ignored, including empty ones.
	RecycleServe(Serve{})
	RecycleServe(Serve{Packets: packets[:2:2]})
}

// TestRecycleServeIgnoresCallerBackings: a SERVE over a backing the caller
// made is the caller's, even when that backing has a pooled one's
// capacity, and so is a pooled SERVE whose Packets the caller pointed at
// such a backing: RecycleServe neither clears nor pools either.
func TestRecycleServeIgnoresCallerBackings(t *testing.T) {
	pkts := make([]*stream.Packet, maxPacketsPerServe)
	for i := range pkts {
		pkts[i] = &stream.Packet{ID: stream.PacketID(i)}
	}
	RecycleServe(Serve{Packets: pkts})
	pooled := SplitServeInto(nil, pkts[:2])[0]
	pooled.Packets = pkts
	RecycleServe(pooled)
	if i := slices.Index(pkts, nil); i >= 0 {
		t.Fatalf("a caller's %d-packet backing was cleared from slot %d: RecycleServe took it for a pooled one", len(pkts), i)
	}
}

// TestRecycleServeNeverPinsPackets checks that a backing goes back to the
// pool holding no packet reference in any of its slots, whatever share of
// it the message used: RecycleServe clears only the written prefix, which
// is sound only while every pooled backing is nil beyond it. Batches of
// shrinking size are cycled so a backing that carried many packets is, when
// the pool hands it out again, reused by a message that carries few.
func TestRecycleServeNeverPinsPackets(t *testing.T) {
	var packets []*stream.Packet
	for i := 0; i < maxPacketsPerServe; i++ {
		packets = append(packets, &stream.Packet{ID: stream.PacketID(i)})
	}
	var batches []Serve
	for _, n := range []int{maxPacketsPerServe, 12, 1, 40, 1} {
		batches = SplitServeInto(batches[:0], packets[:n])
		if len(batches) != 1 || len(batches[0].Packets) != n {
			t.Fatalf("%d empty-payload packets split into %d serves", n, len(batches))
		}
		backing := batches[0].Packets[:maxPacketsPerServe]
		if i := slices.IndexFunc(backing[n:], func(p *stream.Packet) bool { return p != nil }); i >= 0 {
			t.Fatalf("backing handed out for %d packets already holds one in slot %d", n, n+i)
		}
		RecycleServe(batches[0])
		if i := slices.IndexFunc(backing, func(p *stream.Packet) bool { return p != nil }); i >= 0 {
			t.Fatalf("recycled backing of a %d-packet serve still pins slot %d", n, i)
		}
	}
}

// Property: encode/decode round-trips arbitrary id lists exactly, and the
// encoded size always equals WireSize minus UDP overhead.
func TestCodecRoundTripProperty(t *testing.T) {
	c := NewCodec(testLayout())
	f := func(rawIDs []uint32, sender uint32, kindBit bool) bool {
		if len(rawIDs) > MaxIDsPerMessage {
			rawIDs = rawIDs[:MaxIDsPerMessage]
		}
		ids := make([]stream.PacketID, len(rawIDs))
		for i, v := range rawIDs {
			ids[i] = stream.PacketID(v)
		}
		var msg Message
		if kindBit {
			msg = Propose{IDs: ids}
		} else {
			msg = Request{IDs: ids}
		}
		buf, err := c.Encode(sender, msg)
		if err != nil {
			return false
		}
		if len(buf) != msg.WireSize()-UDPOverheadBytes {
			return false
		}
		gotSender, out, err := c.Decode(buf)
		if err != nil || gotSender != sender {
			return false
		}
		var gotIDs []stream.PacketID
		switch m := out.(type) {
		case Propose:
			if !kindBit {
				return false
			}
			gotIDs = m.IDs
		case Request:
			if kindBit {
				return false
			}
			gotIDs = m.IDs
		default:
			return false
		}
		if len(gotIDs) != len(ids) {
			return false
		}
		for i := range ids {
			if gotIDs[i] != ids[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: serve round-trip preserves payload bytes for random payload
// sizes that fit the MTU.
func TestServeRoundTripProperty(t *testing.T) {
	l := testLayout()
	c := NewCodec(l)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3)
		var packets []*stream.Packet
		size := headerBytes
		for i := 0; i < n; i++ {
			plen := rng.Intn(400)
			if size+packetHeaderBytes+plen > MTUBytes {
				break
			}
			payload := make([]byte, plen)
			rng.Read(payload)
			id := stream.PacketID(rng.Intn(l.TotalPackets()))
			packets = append(packets, &stream.Packet{ID: id, Payload: payload})
			size += packetHeaderBytes + plen
		}
		if len(packets) == 0 {
			return true
		}
		buf, err := c.Encode(1, Serve{Packets: packets})
		if err != nil {
			return false
		}
		_, out, err := c.Decode(buf)
		if err != nil {
			return false
		}
		got := out.(Serve)
		if len(got.Packets) != len(packets) {
			return false
		}
		for i := range packets {
			if got.Packets[i].ID != packets[i].ID || !bytes.Equal(got.Packets[i].Payload, packets[i].Payload) {
				return false
			}
			if got.Packets[i].Window != uint32(l.WindowOf(packets[i].ID)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeServe(b *testing.B) {
	c := NewCodec(testLayout())
	msg := Serve{Packets: []*stream.Packet{{ID: 1, Payload: make([]byte, 1250)}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(1, msg); err != nil {
			b.Fatal(err)
		}
	}
}
