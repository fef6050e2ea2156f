// Package pss is a hotalloc fixture shaped like the Cyclon record:
// (*State).Tick, (*State).Handle and (*State).SampleInto are the
// configured hot roots. It pins what an emission may cost: a SHUFFLE
// boxed by value into an Emit-style field is flagged, in a return or out
// of one, while a pointer to the record's scratch passes; so does error
// construction on a validation exit, and make only where it is asserted
// pooled.
package pss

import "fmt"

type Message interface{ Kind() int }

type Shuffle struct {
	Reply   bool
	Entries []int32
}

func (Shuffle) Kind() int { return 5 }

type Emit struct {
	To  int32
	Msg Message
}

type State struct {
	view    []int32
	out     Shuffle
	pending []Emit
	log     []Message
}

// Tick boxes its emission by value: flagged.
func (s *State) Tick() (Emit, bool) {
	if err := s.check(); err != nil {
		return Emit{}, false
	}
	sample := make([]int32, len(s.view)) // want `make in hot path \(\(\*State\)\.Tick\)`
	copy(sample, s.view)
	return Emit{To: s.view[0], Msg: Shuffle{Entries: sample}}, true // want `literal boxes Shuffle into Message in hot path \(\(\*State\)\.Tick\)`
}

// Handle queues a boxed emission outside a return (flagged) and emits a
// pointer to its scratch (free).
func (s *State) Handle(from int32, msg Message) (Emit, bool) {
	em := Emit{To: from, Msg: Shuffle{Reply: true}} // want `literal boxes Shuffle into Message in hot path \(\(\*State\)\.Handle\)`
	//lint:pooled pending is drained every round and keeps its capacity
	s.pending = append(s.pending, em)
	s.log = []Message{Shuffle{}} // want `literal boxes Shuffle into Message in hot path \(\(\*State\)\.Handle\)`
	s.out.Reply = true
	return Emit{To: from, Msg: &s.out}, true
}

// SampleInto grows its buffer with make only where asserted.
func (s *State) SampleInto(dst []int32, k int) []int32 {
	if cap(dst) < k {
		//lint:pooled dst is the caller's partner buffer, grown once to the fanout
		dst = make([]int32, 0, k)
	}
	return dst[:0]
}

// check is reachable from Tick: the error it builds in its return is cold.
func (s *State) check() error {
	if len(s.view) == 0 {
		return fmt.Errorf("pss: empty view of %d slots", cap(s.view))
	}
	return nil
}
