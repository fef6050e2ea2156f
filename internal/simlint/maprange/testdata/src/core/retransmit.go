// Package core is a maprange fixture reproducing the shape of the PR 2
// regression: core.retransmit picked its send order by iterating a Go map,
// so twin runs with identical seeds sent in different orders and the
// fixed-seed replay guarantee silently broke.
//
//lint:deterministic the fixture stands for the protocol package, which replays per seed
package core

type nodeID int32

type peer struct {
	pending map[nodeID][]byte
	out     []nodeID
}

// retransmitBug is the regression shape: map iteration chooses the send
// order, which is randomized per run.
func (p *peer) retransmitBug(send func(nodeID, []byte)) {
	for id, chunk := range p.pending { // want `range over map map\[nodeID\]\[\]byte in a deterministic package`
		send(id, chunk)
	}
}

// retransmitFixed mirrors the PR 2 fix: collect ids, sort, then send.
func (p *peer) retransmitFixed(send func(nodeID, []byte)) {
	p.out = p.out[:0]
	//lint:ordered ids are collected then insertion-sorted before any send below
	for id := range p.pending {
		p.out = append(p.out, id)
	}
	for i := 1; i < len(p.out); i++ {
		for j := i; j > 0 && p.out[j] < p.out[j-1]; j-- {
			p.out[j], p.out[j-1] = p.out[j-1], p.out[j]
		}
	}
	for _, id := range p.out {
		send(id, p.pending[id])
	}
}

// countPending aggregates commutatively; a trailing directive also works.
func (p *peer) countPending() int {
	n := 0
	for _, chunk := range p.pending { //lint:ordered commutative sum; order cannot affect the total
		n += len(chunk)
	}
	return n
}

// unjustified shows that a bare directive suppresses nothing: the missing
// justification is itself reported, and the finding stands.
func (p *peer) unjustified() {
	//lint:ordered
	for range p.pending { // want `directive without a justification` `range over map`
		break
	}
}

// slices and channels range deterministically; no findings.
func (p *peer) overSlice(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}
