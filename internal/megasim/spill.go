package megasim

import (
	"math/bits"

	"gossipstream/internal/stream"
)

// spillClasses is the number of size classes of a spill arena: ranges of
// 8, 16, … 512 elements, the last the class that holds a full PROPOSE or
// REQUEST (wire.MaxIDsPerMessage ids; a SERVE names fewer packets).
const spillClasses = 7

// spillClass returns the class of a list of n > 1 elements: ranges of
// class c hold 8<<c elements.
func spillClass(n int) int { return max(bits.Len(uint(n-1)), 3) - 3 }

// spillArena holds one shard's spilled message lists — the ids and
// SHUFFLE word pairs a record cannot carry inline — as ranges of one
// backing, carved in power-of-two classes, with a free stack per class. A
// steady run stops growing it at its peak of spilled lists in flight and
// recycles ranges from then on, where a backing per record would regrow
// whenever a longer list came by.
type spillArena struct {
	buf  []stream.PacketID
	free [spillClasses][]uint32 // per class: offsets of the free ranges
}

// put copies s, of more than one element and at most one datagram's worth,
// into a free range of its class and returns the range's offset.
func (a *spillArena) put(s []stream.PacketID) uint32 {
	c := spillClass(len(s))
	var off uint32
	if f := a.free[c]; len(f) > 0 {
		off = f[len(f)-1]
		a.free[c] = f[:len(f)-1]
	} else {
		off = uint32(len(a.buf))
		//lint:pooled the arena grows to the peak of spilled lists in flight, then recycles ranges through its free stacks
		a.buf = append(a.buf, make([]stream.PacketID, 8<<c)...)
	}
	copy(a.buf[off:], s)
	return off
}

// release returns the range of n elements at off to its free stack.
func (a *spillArena) release(off uint32, n int32) {
	c := spillClass(int(n))
	//lint:pooled a free stack is bounded by the ranges its class has carved
	a.free[c] = append(a.free[c], off)
}
