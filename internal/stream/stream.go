// Package stream models the live video stream of the paper's evaluation:
// a source emitting a constant-rate stream (600 kbps), packetized and
// grouped into windows of 110 packets — 101 original packets plus 9
// systematic FEC packets (paper §4, "Streaming Configuration").
//
// The package provides three pieces:
//
//   - Layout: the immutable geometry of a stream (rates, window shape, id
//     mapping, publish schedule);
//   - Source: produces the actual packets, parity included, in publish
//     order;
//   - Receiver: per-node delivery state — a bit per id and a count per
//     window — that records when each window became viewable
//     (≥ DataPerWindow distinct packets).
package stream

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"gossipstream/internal/fec"
	"gossipstream/internal/xrand"
)

// PacketID identifies a packet globally: id = window*WindowTotal + index.
type PacketID uint32

// Packet is one stream packet. Packets are immutable after creation and in
// simulation are shared by pointer across all nodes: the source's packet
// table (Source.Table) is the one copy every simulated peer serves from.
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

// Source produces the packets of a stream in publish order. It is not safe
// for concurrent use.
type Source struct {
	layout Layout
	code   *fec.Code
	rng    *rand.Rand
	next   int // next packet ordinal in publish order
	order  []PacketID
	// packets is dense over the stream's ids: entry id is written once,
	// when materialize creates packet id, and nil until then.
	packets []*Packet
	window  [][]byte // payloads of the window under construction
}

// NewSource returns a Source for the layout; payload bytes are drawn from
// the seeded generator so runs are reproducible and FEC decoding can be
// verified end to end.
func NewSource(layout Layout, seed int64) (*Source, error) {
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	var code *fec.Code
	if layout.ParityPerWindow > 0 {
		c, err := fec.New(layout.DataPerWindow, layout.ParityPerWindow)
		if err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
		code = c
	}
	s := &Source{
		layout:  layout,
		code:    code,
		rng:     xrand.New(seed),
		packets: make([]*Packet, layout.TotalPackets()),
	}
	s.buildOrder()
	return s, nil
}

// buildOrder precomputes the publish order: data packets of each window in
// index order, then that window's parity packets.
func (s *Source) buildOrder() {
	l := s.layout
	s.order = make([]PacketID, 0, l.TotalPackets())
	for w := 0; w < l.Windows; w++ {
		for i := 0; i < l.WindowTotal(); i++ {
			s.order = append(s.order, l.IDFor(w, i))
		}
	}
}

// Layout returns the stream layout.
func (s *Source) Layout() Layout { return s.layout }

// PacketsUntil returns, in publish order, all packets published after the
// previous call and no later than now. The returned pointers are shared and
// must be treated as immutable.
func (s *Source) PacketsUntil(now time.Duration) []*Packet {
	return s.AppendPacketsUntil(nil, now)
}

// AppendPacketsUntil is PacketsUntil appending into a caller-provided slice
// so per-tick drivers can reuse one scratch buffer instead of allocating
// every gossip round.
func (s *Source) AppendPacketsUntil(dst []*Packet, now time.Duration) []*Packet {
	for s.next < len(s.order) {
		id := s.order[s.next]
		if s.layout.PublishTime(id) > now {
			break
		}
		dst = append(dst, s.materialize(id))
		s.next++
	}
	return dst
}

// Done reports whether every packet of the stream has been emitted.
func (s *Source) Done() bool { return s.next >= len(s.order) }

// Packet returns a previously published packet by id (nil if not yet
// published or outside the stream). Sources retain all published packets so
// they can serve retransmission requests.
func (s *Source) Packet(id PacketID) *Packet {
	if int(id) < len(s.packets) {
		return s.packets[id]
	}
	return nil
}

// Table returns the source's packet table, indexed by id: entry id is the
// packet Packet(id) returns, nil until it is published (a window's parity
// entries appear together with its last data packet). The table is the
// source's own, not a copy; every entry is written once, before
// AppendPacketsUntil returns the packet, and never changes after. A reader
// on another goroutine may read entry id once it has been handed packet id
// by a path that orders it after that return (a message carrying it, say),
// and must not read entries it has not been handed: the source may be
// writing them.
func (s *Source) Table() []*Packet { return s.packets }

// materialize creates the packet for id, generating payload bytes and, at
// window boundaries, the FEC parity packets. Every window's payloads — data
// and parity — live in two contiguous arenas, so producing a 110-packet
// window costs two allocations instead of one per packet, and parity is
// computed with the zero-allocation EncodeInto.
func (s *Source) materialize(id PacketID) *Packet {
	l := s.layout
	w, idx := l.WindowOf(id), l.IndexOf(id)
	if idx == 0 {
		s.window = fec.AllocShares(l.DataPerWindow, l.PayloadBytes)
	}
	p := &Packet{
		ID:     id,
		Window: uint32(w),
		Index:  uint16(idx),
		Parity: idx >= l.DataPerWindow,
	}
	if !p.Parity {
		payload := s.window[idx]
		s.rng.Read(payload)
		p.Payload = payload
		if idx == l.DataPerWindow-1 && s.code != nil {
			parity := fec.AllocShares(l.ParityPerWindow, l.PayloadBytes)
			if err := s.code.EncodeInto(s.window, parity); err != nil {
				// Window shapes are validated at construction; an encode
				// failure here is a programmer error.
				panic(fmt.Sprintf("stream: window %d encode: %v", w, err))
			}
			for pi, pp := range parity {
				pid := l.IDFor(w, l.DataPerWindow+pi)
				s.packets[pid] = &Packet{
					ID:      pid,
					Window:  uint32(w),
					Index:   uint16(l.DataPerWindow + pi),
					Parity:  true,
					Payload: pp,
				}
			}
		}
	} else {
		// Parity packets were materialized alongside the window's last
		// data packet; just look them up.
		if pre := s.packets[id]; pre != nil {
			return pre
		}
		// Parity disabled (ParityPerWindow == 0) never reaches here;
		// guard anyway.
		p.Payload = make([]byte, l.PayloadBytes)
	}
	s.packets[id] = p
	return p
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
	windows   []windowState
	delivered int
}

type windowState struct {
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
	total := layout.TotalPackets()
	return Receiver{
		layout:  layout,
		total:   total,
		seen:    make([]uint64, (total+63)/64),
		windows: make([]windowState, layout.Windows),
	}
}

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
