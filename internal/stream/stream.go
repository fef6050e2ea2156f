// Package stream models the live video stream of the paper's evaluation:
// a source emitting a constant-rate stream (600 kbps), packetized and
// grouped into windows of 110 packets — 101 original packets plus 9
// systematic FEC packets (paper §4, "Streaming Configuration").
//
// The package provides three pieces:
//
//   - Layout: the immutable geometry of a stream (rates, window shape, id
//     mapping, publish schedule);
//   - Source: publishes the stream's ids in publish order and, for a
//     driver that sends bytes, builds the packets, parity included;
//   - Receiver: per-node delivery state — a bit per id and a count per
//     window — that records when each window became viewable
//     (≥ DataPerWindow distinct packets).
//
// A simulation moves ids only: a packet's size is the layout's
// PayloadBytes and nothing simulated reads a payload byte, so no simulated
// run builds a Packet. Payloads and FEC serve the real-time driver, which
// puts them on a socket.
//
//lint:deterministic the source's packets and windows feed every simulated run
package stream

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"gossipstream/internal/fec"
	"gossipstream/internal/xrand"
)

// PacketID identifies a packet globally: id = window*WindowTotal + index.
type PacketID uint32

// Packet is one stream packet, payload included. Packets exist only for a
// driver that sends bytes (Source.Packet); they are immutable after
// creation and shared by pointer.
type Packet struct {
	ID      PacketID
	Window  uint32
	Index   uint16 // position within the window, parity at the tail
	Parity  bool
	Payload []byte
}

// Layout describes the geometry and timing of a stream. The zero value is
// not valid; use DefaultLayout or fill all fields and call Validate.
type Layout struct {
	// RateBps is the stream bit rate (payload bits per second). The paper
	// uses 600 kbps.
	RateBps int64
	// PayloadBytes is the payload carried by each packet.
	PayloadBytes int
	// DataPerWindow is the number of original packets per window (101).
	DataPerWindow int
	// ParityPerWindow is the number of FEC packets per window (9).
	ParityPerWindow int
	// Windows is the total number of windows in the stream.
	Windows int
}

// DefaultLayout returns the paper's streaming configuration: 600 kbps,
// windows of 101+9 packets, with the requested stream length in windows.
func DefaultLayout(windows int) Layout {
	return Layout{
		RateBps:         600_000,
		PayloadBytes:    1316,
		DataPerWindow:   fec.PaperDataShares,
		ParityPerWindow: fec.PaperParityShares,
		Windows:         windows,
	}
}

// Validate reports whether the layout is internally consistent.
func (l Layout) Validate() error {
	switch {
	case l.RateBps <= 0:
		return fmt.Errorf("stream: RateBps = %d, want > 0", l.RateBps)
	case l.PayloadBytes <= 0:
		return fmt.Errorf("stream: PayloadBytes = %d, want > 0", l.PayloadBytes)
	case l.DataPerWindow <= 0:
		return fmt.Errorf("stream: DataPerWindow = %d, want > 0", l.DataPerWindow)
	case l.ParityPerWindow < 0:
		return fmt.Errorf("stream: ParityPerWindow = %d, want >= 0", l.ParityPerWindow)
	case l.DataPerWindow+l.ParityPerWindow > 255:
		return fmt.Errorf("stream: window of %d shares exceeds GF(256) limit", l.DataPerWindow+l.ParityPerWindow)
	case l.Windows <= 0:
		return fmt.Errorf("stream: Windows = %d, want > 0", l.Windows)
	case int64(l.Windows) > math.MaxUint32/int64(l.WindowTotal()):
		return fmt.Errorf("stream: %d windows of %d packets overflow a PacketID", l.Windows, l.WindowTotal())
	}
	return nil
}

// WindowTotal returns the number of packets per window, parity included.
func (l Layout) WindowTotal() int { return l.DataPerWindow + l.ParityPerWindow }

// TotalPackets returns the number of packets in the whole stream.
func (l Layout) TotalPackets() int { return l.Windows * l.WindowTotal() }

// PacketTime returns the wall-clock time one data packet represents at the
// stream rate.
func (l Layout) PacketTime() time.Duration {
	return time.Duration(float64(l.PayloadBytes*8) / float64(l.RateBps) * float64(time.Second))
}

// Duration returns the playback duration of the stream.
func (l Layout) Duration() time.Duration {
	return time.Duration(l.Windows*l.DataPerWindow) * l.PacketTime()
}

// WindowOf returns the window a packet id belongs to.
func (l Layout) WindowOf(id PacketID) int { return int(id) / l.WindowTotal() }

// IndexOf returns the position of the packet within its window.
func (l Layout) IndexOf(id PacketID) int { return int(id) % l.WindowTotal() }

// IsParity reports whether id is one of the window's FEC packets.
func (l Layout) IsParity(id PacketID) bool { return l.IndexOf(id) >= l.DataPerWindow }

// IDFor returns the PacketID for a window and in-window index.
func (l Layout) IDFor(window, index int) PacketID {
	return PacketID(window*l.WindowTotal() + index)
}

// PublishTime returns the virtual time a packet becomes available at the
// source. Data packet i of window w is published when its last payload byte
// has been produced at the stream rate; a window's parity packets are
// published together with its final data packet (the source can only encode
// once the window is complete).
func (l Layout) PublishTime(id PacketID) time.Duration {
	w, idx := l.WindowOf(id), l.IndexOf(id)
	dataIdx := idx
	if idx >= l.DataPerWindow {
		dataIdx = l.DataPerWindow - 1
	}
	streamPackets := w*l.DataPerWindow + dataIdx + 1
	return time.Duration(streamPackets) * l.PacketTime()
}

// WindowPublishTime returns the publish time of the last packet of window
// w — the reference point for measuring stream lag of that window.
func (l Layout) WindowPublishTime(w int) time.Duration {
	return l.PublishTime(l.IDFor(w, l.WindowTotal()-1))
}

// Source publishes a stream. Ids are published in id order, which is
// publish order — a window's data packets in index order, then its parity
// with its last data packet — by moving one cursor: publishing costs
// nothing per id, and ids are all a simulation reads. The packets
// themselves, random payloads and their Reed–Solomon parity, exist only
// for a driver that sends bytes: the first Packet or PacketsUntil call
// builds them, window by window in order, so a window's bytes do not
// depend on when it is first asked for. It is not safe for concurrent use.
type Source struct {
	layout Layout
	seed   int64
	next   int // ids below next are published

	// Built on the first packet asked for: the code, the payload stream and
	// windows[w], the packets of window w, for every window up to the
	// newest asked for.
	code    *fec.Code
	rng     *rand.Rand
	windows [][]Packet
}

// NewSource returns a Source for the layout. Payload bytes, once asked
// for, are drawn from a generator seeded with seed, so runs are
// reproducible and FEC decoding can be verified end to end.
func NewSource(layout Layout, seed int64) (*Source, error) {
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	return &Source{layout: layout, seed: seed}, nil
}

// Layout returns the stream layout.
func (s *Source) Layout() Layout { return s.layout }

// PublishUntil publishes every id whose publish time is no later than now
// and returns them: the ids from first up to, not including, end.
func (s *Source) PublishUntil(now time.Duration) (first, end PacketID) {
	first = PacketID(s.next)
	for s.next < s.layout.TotalPackets() && s.layout.PublishTime(PacketID(s.next)) <= now {
		s.next++
	}
	return first, PacketID(s.next)
}

// PacketsUntil publishes like PublishUntil and returns the packets of the
// ids it published, in publish order. The returned pointers are shared and
// must be treated as immutable.
func (s *Source) PacketsUntil(now time.Duration) []*Packet {
	var pkts []*Packet
	first, end := s.PublishUntil(now)
	for id := first; id < end; id++ {
		pkts = append(pkts, s.Packet(id))
	}
	return pkts
}

// Done reports whether every packet of the stream has been published.
func (s *Source) Done() bool { return s.next >= s.layout.TotalPackets() }

// Packet returns a published packet by id (nil if not yet published or
// outside the stream), building the windows up to its own first. Sources
// retain every packet built so they can serve retransmission requests.
func (s *Source) Packet(id PacketID) *Packet {
	if int(id) >= s.next {
		return nil
	}
	w := s.layout.WindowOf(id)
	for len(s.windows) <= w {
		s.buildWindow()
	}
	return &s.windows[w][s.layout.IndexOf(id)]
}

// buildWindow builds the packets of the next window: its data payloads,
// drawn in index order, and their parity. A window's payloads live in one
// arena and its packets in one slice, and parity is computed with the
// zero-allocation EncodeInto.
func (s *Source) buildWindow() {
	l := s.layout
	if s.windows == nil {
		s.rng = xrand.New(s.seed)
		s.windows = make([][]Packet, 0, l.Windows)
		if l.ParityPerWindow > 0 {
			c, err := fec.New(l.DataPerWindow, l.ParityPerWindow)
			if err != nil {
				// Validate checked the window shape at construction.
				panic(fmt.Sprintf("stream: %v", err))
			}
			s.code = c
		}
	}
	w := len(s.windows)
	payloads := fec.AllocShares(l.WindowTotal(), l.PayloadBytes)
	data := payloads[:l.DataPerWindow]
	for _, d := range data {
		s.rng.Read(d)
	}
	if s.code != nil {
		if err := s.code.EncodeInto(data, payloads[l.DataPerWindow:]); err != nil {
			// Window shapes are validated at construction; an encode
			// failure here is a programmer error.
			panic(fmt.Sprintf("stream: window %d encode: %v", w, err))
		}
	}
	pkts := make([]Packet, l.WindowTotal())
	for i := range pkts {
		pkts[i] = Packet{
			ID:      l.IDFor(w, i),
			Window:  uint32(w),
			Index:   uint16(i),
			Parity:  i >= l.DataPerWindow,
			Payload: payloads[i],
		}
	}
	s.windows = append(s.windows, pkts)
}

// Receiver assembles windows on a node and records viewability times. It
// tracks packet identity only (one bit per id and a count per window), not
// payloads: a window counts as viewable once DataPerWindow distinct packets
// arrived, which is when fec.Code could reconstruct it.
//
// A Receiver is a value with two backings — the bitset over the stream's
// ids and the per-window counts — so an owner may embed it; it must not be
// copied once in use, or the copies share bits but not counts (Snapshot
// makes an independent one).
type Receiver struct {
	layout    Layout
	total     int      // layout.TotalPackets(): ids at or beyond it are outside the stream
	seen      []uint64 // bit id set once packet id is delivered
	windows   []WindowState
	delivered int
}

// WindowState is one window's entry in a Receiver's per-window backing:
// its count of distinct packets and when the count became viewable.
type WindowState struct {
	completed time.Duration // time count reached DataPerWindow; 0 = never
	count     int32
}

// NewReceiver returns a Receiver for the layout.
func NewReceiver(layout Layout) *Receiver {
	r := MakeReceiver(layout)
	return &r
}

// MakeReceiver returns a Receiver for the layout by value, for owners that
// embed one. It allocates the two backings and nothing else, however long
// the stream.
func MakeReceiver(layout Layout) Receiver {
	return MakeReceiverOver(layout, make([]uint64, SeenWords(layout)), make([]WindowState, layout.Windows))
}

// SeenWords returns the length of the bitset backing a Receiver for the
// layout keeps: one bit per stream id.
func SeenWords(layout Layout) int { return (layout.TotalPackets() + 63) / 64 }

// MakeReceiverOver returns a Receiver for the layout over backings its
// owner provides, zeroed: seen of SeenWords(layout) words and windows of
// layout.Windows states. The Receiver uses them until Backings hands them
// back.
func MakeReceiverOver(layout Layout, seen []uint64, windows []WindowState) Receiver {
	if len(seen) != SeenWords(layout) || len(windows) != layout.Windows {
		panic(fmt.Sprintf("stream: receiver backings of %d words and %d windows, want %d and %d",
			len(seen), len(windows), SeenWords(layout), layout.Windows))
	}
	return Receiver{layout: layout, total: layout.TotalPackets(), seen: seen, windows: windows}
}

// Backings returns the receiver's two backings, for an owner that lends
// them out (MakeReceiverOver) to take back or clear and reuse.
func (r *Receiver) Backings() (seen []uint64, windows []WindowState) { return r.seen, r.windows }

// Snapshot returns a deep copy of the receiver's state, for readers that
// poll metrics while another goroutine keeps delivering. The caller owning
// synchronization of Deliver decides when the snapshot is taken.
func (r *Receiver) Snapshot() *Receiver {
	cp := *r
	cp.seen = slices.Clone(r.seen)
	cp.windows = slices.Clone(r.windows)
	return &cp
}

// Deliver records receipt of packet id at virtual time now. It returns true
// if the packet is new (first delivery), false for duplicates or ids outside
// the stream.
func (r *Receiver) Deliver(id PacketID, now time.Duration) bool {
	if int(id) >= r.total {
		return false
	}
	word, bit := &r.seen[id/64], uint64(1)<<(id%64)
	if *word&bit != 0 {
		return false
	}
	*word |= bit
	ws := &r.windows[r.layout.WindowOf(id)]
	ws.count++
	r.delivered++
	if int(ws.count) == r.layout.DataPerWindow {
		ws.completed = now
	}
	return true
}

// Has reports whether packet id has been delivered.
func (r *Receiver) Has(id PacketID) bool {
	return int(id) < r.total && r.seen[id/64]&(1<<(id%64)) != 0
}

// Count returns the number of distinct packets received for window w.
func (r *Receiver) Count(w int) int { return int(r.windows[w].count) }

// Delivered returns the total number of distinct packets received.
func (r *Receiver) Delivered() int { return r.delivered }

// CompletionTime returns the time window w became viewable (received its
// DataPerWindow-th distinct packet) and whether it ever did.
func (r *Receiver) CompletionTime(w int) (time.Duration, bool) {
	ws := &r.windows[w]
	if int(ws.count) < r.layout.DataPerWindow {
		return 0, false
	}
	return ws.completed, true
}

// Lag returns the stream lag of window w: completion time minus the window's
// publish time. The second return is false if the window never completed.
func (r *Receiver) Lag(w int) (time.Duration, bool) {
	c, ok := r.CompletionTime(w)
	if !ok {
		return 0, false
	}
	lag := c - r.layout.WindowPublishTime(w)
	if lag < 0 {
		lag = 0
	}
	return lag, true
}
