package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"gossipstream/internal/member"
	"gossipstream/internal/stream"
	"gossipstream/internal/wire"
)

// The peer keeps its retransmission deadlines to itself and runs one engine
// timer for all of them. What that must add up to is the behaviour of the
// literal reading of Algorithm 1 — a timer per REQUEST — which
// perBatchPeer below implements the obvious way. Scripts of PROPOSEs,
// SERVEs, clock advances, Stops and Starts are played to both, on either
// timer route; the REQUESTs sent (target, ids, instant), the random draws
// and the counters must agree, and after every step the peer's slabs must
// be consistent (checkRetStructure).

// specEnv is a scripted Env: a virtual clock, timers fired in (deadline,
// arm order) order by advance, REQUESTs recorded, everything else dropped.
type specEnv struct {
	now    time.Duration
	rng    *rand.Rand
	seq    int
	timers []*specTimer // pending, in no order
	sent   []string     // "<instant> →<target> <ids>" per REQUEST
}

type specTimer struct {
	at  time.Duration
	seq int
	fn  func()
	// retGen is the generation of a flat retransmission timer, zero for
	// every other timer (generations start at one).
	retGen uint32
}

func (e *specEnv) ID() wire.NodeID    { return 9 }
func (e *specEnv) Now() time.Duration { return e.now }
func (e *specEnv) Rand() *rand.Rand   { return e.rng }

func (e *specEnv) Send(to wire.NodeID, msg wire.Message) {
	if r, ok := msg.(wire.Request); ok {
		e.sendRequest(to, r.IDs)
	}
}

func (e *specEnv) sendRequest(to wire.NodeID, ids []stream.PacketID) {
	e.sent = append(e.sent, fmt.Sprintf("%v →%d %v", e.now, to, ids))
}

func (e *specEnv) After(d time.Duration, fn func()) func() {
	t := e.arm(d, fn)
	return func() {
		if i := slices.Index(e.timers, t); i >= 0 {
			e.timers = slices.Delete(e.timers, i, i+1)
		}
	}
}

func (e *specEnv) arm(d time.Duration, fn func()) *specTimer {
	e.seq++
	t := &specTimer{at: e.now + d, seq: e.seq, fn: fn}
	e.timers = append(e.timers, t)
	return t
}

// advance moves the clock to e.now+d, firing what falls due on the way.
func (e *specEnv) advance(d time.Duration) {
	end := e.now + d
	for {
		next := -1
		for i, t := range e.timers {
			if t.at <= end && (next < 0 || t.at < e.timers[next].at || t.at == e.timers[next].at && t.seq < e.timers[next].seq) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		t := e.timers[next]
		e.timers = slices.Delete(e.timers, next, next+1)
		e.now = t.at
		t.fn()
	}
	e.now = end
}

// flatSpecEnv is specEnv as a TimerEnv: flat timers, which nothing can
// cancel, and typed sends.
type flatSpecEnv struct {
	*specEnv
	peer *Peer
}

func (e flatSpecEnv) FlatTimers() bool { return true }
func (e flatSpecEnv) AfterTimer(d time.Duration, kind uint8, arg uint32) {
	t := e.arm(d, func() { e.peer.OnTimer(kind, arg) })
	if kind == timerRetransmit {
		t.retGen = arg
	}
}
func (e flatSpecEnv) SendIDs(to wire.NodeID, kind wire.Kind, ids []stream.PacketID) {
	if kind == wire.KindRequest {
		e.sendRequest(to, ids)
	}
}
func (e flatSpecEnv) SendServe(wire.NodeID, []stream.PacketID, int) {}

var _ TimerEnv = flatSpecEnv{}

// perBatchPeer is the pull side of the protocol with a retransmission
// timer per REQUEST: maps for state, one closure per batch.
type perBatchPeer struct {
	env       *specEnv
	cfg       Config
	total     int
	running   bool
	delivered map[stream.PacketID]bool
	requests  map[stream.PacketID]int           // REQUESTs issued per id
	proposers map[stream.PacketID][]wire.NodeID // first MaxProposers of them
	batches   map[*specBatch]func()             // pending check → its cancel
	counters  Counters
}

type specBatch struct {
	proposer wire.NodeID
	ids      []stream.PacketID
}

func (m *perBatchPeer) start() {
	if !m.running {
		m.running = true
		m.env.rng.Int63n(int64(m.cfg.GossipPeriod)) // the first round's phase
	}
}

// stop cancels every pending check and forgets what it was waiting for.
func (m *perBatchPeer) stop() {
	m.running = false
	for b, cancel := range m.batches {
		cancel()
		for _, id := range b.ids {
			if !m.delivered[id] {
				delete(m.requests, id)
				delete(m.proposers, id)
			}
		}
	}
	clear(m.batches)
}

func (m *perBatchPeer) propose(from wire.NodeID, ids []stream.PacketID) {
	if !m.running {
		return
	}
	var fresh []stream.PacketID
	for _, id := range ids {
		if int(id) >= m.total || m.delivered[id] {
			continue
		}
		if m.requests[id] == 0 {
			m.requests[id] = 1
			fresh = append(fresh, id)
		}
		if len(m.proposers[id]) < m.cfg.MaxProposers {
			m.proposers[id] = append(m.proposers[id], from)
		}
	}
	if len(fresh) == 0 {
		return
	}
	m.env.sendRequest(from, fresh)
	m.counters.RequestsSent++
	if m.cfg.MaxRequests > 1 {
		m.arm(from, fresh)
	}
}

func (m *perBatchPeer) arm(proposer wire.NodeID, ids []stream.PacketID) {
	delay := time.Duration(float64(m.cfg.RetPeriod) * (1.0 + 0.5*m.env.rng.Float64()))
	b := &specBatch{proposer, ids}
	m.batches[b] = m.env.After(delay, func() {
		delete(m.batches, b)
		m.check(b)
	})
}

func (m *perBatchPeer) check(b *specBatch) {
	var retry []stream.PacketID
	var targets []wire.NodeID
	missing := false
	for _, id := range b.ids {
		if m.delivered[id] {
			continue
		}
		missing = true
		if m.requests[id] >= m.cfg.MaxRequests {
			continue
		}
		m.requests[id]++
		target := b.proposer
		if known := m.proposers[id]; m.cfg.Retry == RetryRandomProposer && len(known) > 0 {
			target = known[m.env.rng.Intn(len(known))]
		}
		retry, targets = append(retry, id), append(targets, target)
	}
	if missing {
		m.counters.RetChecks++
	}
	if len(retry) == 0 {
		return
	}
	for i, target := range targets {
		if slices.Contains(targets[:i], target) {
			continue
		}
		var toTarget []stream.PacketID
		for j := i; j < len(targets); j++ {
			if targets[j] == target {
				toTarget = append(toTarget, retry[j])
			}
		}
		m.env.sendRequest(target, toTarget)
		m.counters.RequestsSent++
		m.counters.Retransmissions++
	}
	m.arm(b.proposer, retry)
}

func (m *perBatchPeer) serve(ids []stream.PacketID) {
	if !m.running {
		return
	}
	for _, id := range ids {
		if int(id) >= m.total {
			continue // outside the stream: neither new nor a duplicate
		}
		if m.delivered[id] {
			m.counters.DuplicateServes++
			continue
		}
		m.delivered[id] = true
		for b := range m.batches {
			if slices.Contains(b.ids, id) && !slices.ContainsFunc(b.ids, func(id stream.PacketID) bool { return !m.delivered[id] }) {
				m.counters.RetBatchesRetired++ // its check will find nothing to do
			}
		}
	}
}

// specOp is one step of a script: a PROPOSE ('P') of ids from a node, a
// SERVE ('S') of ids, a clock advance ('A') by dt, a Stop ('X') or a
// Start ('G'). When peers share a table, peer picks the one the step is
// played to (modulo their number); an advance moves every peer's clock.
type specOp struct {
	kind byte
	from wire.NodeID
	ids  []stream.PacketID
	dt   time.Duration
	peer uint8
}

// specIDs is the id space scripts draw from: the 18 ids of tinyLayout and
// two beyond it.
const specIDs = 20

// decodeSpec reads a script from fuzz input: a header byte (route, retry
// policy, K), then one opcode byte per step followed by its arguments. It
// accepts every input; bytes past the end read as zero.
func decodeSpec(data []byte) (flat bool, retry RetryPolicy, k int, ops []specOp) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	ids := func() []stream.PacketID {
		out := make([]stream.PacketID, 1+next()%6)
		for i := range out {
			out[i] = stream.PacketID(next() % specIDs)
		}
		return out
	}
	h := next()
	flat, retry, k = h&1 != 0, RetrySameProposer, []int{1, 2, 4}[(h>>2&0x1f)%3] // bit 7 is FuzzSharedTable's
	if h&2 != 0 {
		retry = RetryRandomProposer
	}
	for len(data) > 0 && len(ops) < 256 {
		op := next()
		switch op % 8 {
		case 0, 1, 2:
			ops = append(ops, specOp{kind: 'P', from: 3 + wire.NodeID(next()%3), ids: ids()})
		case 3, 4:
			ops = append(ops, specOp{kind: 'S', ids: ids()})
		case 5, 6:
			ops = append(ops, specOp{kind: 'A', dt: time.Duration(int(next())<<8|int(next())) * time.Millisecond})
		case 7:
			ops = append(ops, specOp{kind: "GX"[next()%2]})
		}
		ops[len(ops)-1].peer = op >> 3
	}
	return flat, retry, k, ops
}

// encodeSpec is decodeSpec's inverse for scripts within its ranges, so that
// the table's scenarios can seed the fuzzer.
func encodeSpec(flat bool, retry RetryPolicy, k int, ops []specOp) []byte {
	h := byte(slices.Index([]int{1, 2, 4}, k) << 2)
	if flat {
		h |= 1
	}
	if retry == RetryRandomProposer {
		h |= 2
	}
	out := []byte{h}
	ids := func(ids []stream.PacketID) {
		out = append(out, byte(len(ids)-1))
		for _, id := range ids {
			out = append(out, byte(id))
		}
	}
	for _, op := range ops {
		peer := op.peer << 3
		switch op.kind {
		case 'P':
			out = append(out, peer|0, byte(op.from-3))
			ids(op.ids)
		case 'S':
			out = append(out, peer|3)
			ids(op.ids)
		case 'A':
			ms := op.dt / time.Millisecond
			out = append(out, peer|5, byte(ms>>8), byte(ms))
		case 'G':
			out = append(out, peer|7, 0)
		case 'X':
			out = append(out, peer|7, 1)
		}
	}
	return out
}

// runSpec plays ops to a Peer, on the flat route or the After one, and to
// the per-batch-timer reference, and fails on the first difference or
// broken invariant.
func runSpec(t *testing.T, flat bool, retry RetryPolicy, k int, ops []specOp) {
	t.Helper()
	cfg := testConfig()
	cfg.Retry, cfg.MaxRequests = retry, k
	// A leech gossips nothing, so its rounds draw no random numbers and
	// send no PROPOSEs: the run is the pull side alone.
	cfg.Leech = true
	layout := tinyLayout()

	env := &specEnv{rng: rand.New(rand.NewSource(7))}
	fenv := flatSpecEnv{specEnv: env}
	var penv Env = env
	if flat {
		penv = &fenv
	}
	p, err := NewPeer(penv, cfg, member.NewSparseView(9, 64, rand.New(rand.NewSource(1))), layout)
	if err != nil {
		t.Fatal(err)
	}
	fenv.peer = p
	m := &perBatchPeer{
		env: &specEnv{rng: rand.New(rand.NewSource(7))}, cfg: cfg, total: layout.TotalPackets(),
		delivered: map[stream.PacketID]bool{}, requests: map[stream.PacketID]int{},
		proposers: map[stream.PacketID][]wire.NodeID{}, batches: map[*specBatch]func(){},
	}
	p.Start()
	m.start()
	if _, boxed := p.flat.(*boxedEnv); boxed == flat {
		t.Fatalf("peer on its Env's own flat route: %v, want %v", !boxed, flat)
	}
	for i, op := range ops {
		switch op.kind {
		case 'P':
			p.HandleMessage(op.from, wire.Propose{IDs: op.ids})
			m.propose(op.from, op.ids)
		case 'S':
			pkts := make([]*stream.Packet, len(op.ids))
			for j, id := range op.ids {
				pkts[j] = &stream.Packet{ID: id, Payload: make([]byte, layout.PayloadBytes)}
			}
			p.HandleMessage(3, wire.Serve{Packets: pkts})
			m.serve(op.ids)
		case 'A':
			env.advance(op.dt)
			m.env.advance(op.dt)
		case 'X':
			p.Stop()
			m.stop()
		case 'G':
			p.Start()
			m.start()
		}
		step := fmt.Sprintf("step %d (%c %d %v %v)", i, op.kind, op.from, op.ids, op.dt)
		for j := range max(len(env.sent), len(m.env.sent)) {
			if j >= len(env.sent) || j >= len(m.env.sent) || env.sent[j] != m.env.sent[j] {
				t.Fatalf("%s: REQUEST %d: the peer sent %q, a timer per batch sends %q", step, j, env.sent[j:], m.env.sent[j:])
			}
		}
		got := p.Counters()
		got.Rounds, got.RetIdleWakeups = 0, 0 // the reference has no rounds and no shared timer
		if got != m.counters {
			t.Fatalf("%s: counters %+v, a timer per batch counts %+v", step, got, m.counters)
		}
		if a, b := env.rng.Int63(), m.env.rng.Int63(); a != b {
			t.Fatalf("%s: the peer and the reference have drawn different random numbers", step)
		}
		if err := checkRetStructure(p, env, flat); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
}

// checkRetStructure verifies the retransmission state of p, alone on its
// table: its own (checkPeerRet) and the table's (checkTable).
func checkRetStructure(p *Peer, env *specEnv, flat bool) error {
	if err := checkPeerRet(p, env, flat); err != nil {
		return err
	}
	return checkTable(p.tab, p)
}

// checkPeerRet verifies p's armed batches and their request records
// against each other, against the request index and the known bits, and
// against the timers pending in its environment.
func checkPeerRet(p *Peer, env *specEnv, flat bool) error {
	t := p.tab
	isKnown := func(id stream.PacketID) bool { return p.known[id/64]&(1<<(id%64)) != 0 }
	// listed[ri] marks the request records some batch's list reaches.
	listed := make([]bool, t.reqs.Len()+1)
	earliest, armed, records := time.Duration(0), 0, 0
	for prevB, bi := uint32(0), p.batchHead; bi != 0; prevB, bi = bi, t.batch(bi).next {
		if int(bi) > t.batches.Len() || armed >= t.batches.Len() {
			return fmt.Errorf("the peer's batch list loops or leaves the %d-batch slab", t.batches.Len())
		}
		b := t.batch(bi)
		switch {
		case !b.armed:
			return fmt.Errorf("batch %d is on the peer's list and not armed", bi-1)
		case b.prev != prevB:
			return fmt.Errorf("batch %d follows batch %d on the peer's list but links back to %d", bi-1, int(prevB)-1, int(b.prev)-1)
		}
		if armed++; armed == 1 || b.due < earliest {
			earliest = b.due
		}
		if b.head == 0 {
			return fmt.Errorf("batch %d is armed with no id undelivered", bi-1)
		}
		prev := uint32(0)
		for ri := b.head; ri != 0; prev, ri = ri, t.req(ri).next {
			if int(ri) > t.reqs.Len() || listed[ri] {
				return fmt.Errorf("batch %d: the list reaches record %d twice or outside the %d-record slab", bi-1, ri, t.reqs.Len())
			}
			listed[ri] = true
			records++
			st := t.req(ri)
			switch {
			case st.prev != prev:
				return fmt.Errorf("batch %d: record %d follows %d but links back to %d", bi-1, ri, prev, st.prev)
			case st.batch != bi:
				return fmt.Errorf("batch %d holds record %d, which names batch %d", bi-1, ri, int(st.batch)-1)
			case p.index.get(st.id) != ri:
				return fmt.Errorf("batch %d holds record %d for id %d, whose record in the index is %d", bi-1, ri, st.id, p.index.get(st.id))
			case !isKnown(st.id):
				return fmt.Errorf("batch %d holds record %d for id %d, whose known bit is clear", bi-1, ri, st.id)
			case p.recv.Has(st.id):
				return fmt.Errorf("id %d is delivered and still has a request record", st.id)
			case st.requests < 1 || int(st.requests) > p.cfg.MaxRequests:
				return fmt.Errorf("id %d has used %d of %d requests", st.id, st.requests, p.cfg.MaxRequests)
			}
		}
	}
	if p.cfg.MaxRequests == 1 && records > 0 {
		return fmt.Errorf("K = 1 and %d request records held", records)
	}
	// The index holds exactly the listed records, each under its own id.
	occupied := 0
	for _, slot := range p.index.slots {
		if slot == 0 {
			continue
		}
		occupied++
		id, ri := stream.PacketID(slot>>32-1), uint32(slot)
		if ri == 0 || int(ri) > t.reqs.Len() || !listed[ri] || t.req(ri).id != id {
			return fmt.Errorf("the index maps id %d to record %d, which no armed batch holds for it", id, ri)
		}
	}
	if occupied != records || p.index.n != records {
		return fmt.Errorf("the index holds %d ids (counts %d), the armed batches %d records", occupied, p.index.n, records)
	}
	for id := 0; id < p.layoutTotal; id++ {
		if p.recv.Has(stream.PacketID(id)) && !isKnown(stream.PacketID(id)) {
			return fmt.Errorf("id %d is delivered and its known bit is clear", id)
		}
	}
	if armed > 0 && (!p.running || !p.retArmed || p.retDue > earliest || p.retDue < env.now) {
		return fmt.Errorf("%d batches armed, earliest due %v at %v: running %v, timer armed %v for %v",
			armed, earliest, env.now, p.running, p.retArmed, p.retDue)
	}
	// While the peer counts on its retransmission timer, one is in flight
	// for retDue. On the flat route it is the one timer of the newest
	// generation. Over a plain Env the adapter arms each AfterTimer as one
	// After, whose closure the environment cannot tell from a tick's, so
	// a timer due at retDue is what can be seen; the flat half checks the
	// peer's own arming, which is the same code on both routes. Neither
	// route cancels, so superseded timers and a stopped peer's stay in
	// flight and fire as no-ops.
	if !p.retArmed {
		return nil
	}
	live, due := 0, 0
	for _, t := range env.timers {
		if t.retGen == p.retGen {
			live++
		}
		if t.at == p.retDue && (!flat || t.retGen == p.retGen) {
			due++
		}
	}
	if flat && (live != 1 || due != 1) || due == 0 {
		return fmt.Errorf("%d timers of generation %d in flight, %d due at %v: the peer counts on one", live, p.retGen, due, p.retDue)
	}
	return nil
}

// checkTable verifies t's free chains and counts against the records and
// batches peers — every peer on t — hold: each record and batch is held
// by exactly one peer or free, and a table whose peers never retry (K =
// 1) has made no record.
func checkTable(t *Table, peers ...*Peer) error {
	records, armed, retrying := 0, 0, false
	for _, p := range peers {
		if p.tab != t {
			return fmt.Errorf("a peer checked against a table it is not on")
		}
		retrying = retrying || p.cfg.MaxRequests > 1
		for bi := p.batchHead; bi != 0; bi = t.batch(bi).next {
			armed++
			for ri := t.batch(bi).head; ri != 0; ri = t.req(ri).next {
				records++
			}
		}
	}
	if !retrying && t.reqs.Len() > 0 {
		return fmt.Errorf("K = 1 and %d request records made", t.reqs.Len())
	}
	freeReqs, freeBatches := 0, 0
	for ri := t.reqFree; ri != 0; ri = t.req(ri).next {
		if freeReqs++; int(ri) > t.reqs.Len() || freeReqs > t.reqs.Len() {
			return fmt.Errorf("the request free chain loops or leaves the %d-record slab", t.reqs.Len())
		}
		if st := *t.req(ri); st != (requestState{next: st.next}) {
			return fmt.Errorf("free request record %d is still in use: %+v", ri, st)
		}
	}
	for bi := t.batchFree; bi != 0; bi = t.batch(bi).head {
		if freeBatches++; int(bi) > t.batches.Len() || freeBatches > t.batches.Len() {
			return fmt.Errorf("the batch free chain loops or leaves the %d-batch slab", t.batches.Len())
		}
		if t.batch(bi).armed {
			return fmt.Errorf("batch %d is armed and on the free chain", bi-1)
		}
	}
	if t.reqs.Len()-freeReqs != records || t.batches.Len()-freeBatches != armed {
		return fmt.Errorf("free chains out of step: %d/%d request records free, %d/%d batches free with %d armed",
			freeReqs, t.reqs.Len(), freeBatches, t.batches.Len(), armed)
	}
	if inReqs, inBatches, _ := t.InUse(); inReqs != records || inBatches != armed {
		return fmt.Errorf("the table counts %d records and %d batches lent, its peers hold %d and %d", inReqs, inBatches, records, armed)
	}
	return nil
}

// specScenarios are core_more_test.go's retransmission scenarios as
// scripts, and a few the one-timer design adds.
func specScenarios() map[string][]specOp {
	ids := func(ids ...stream.PacketID) []stream.PacketID { return ids }
	scenarios := map[string][]specOp{
		"never-served": {
			{kind: 'P', from: 3, ids: ids(0, 1)}, {kind: 'P', from: 4, ids: ids(0, 1)}, {kind: 'A', dt: time.Minute},
		},
		"three-proposers": {
			{kind: 'P', from: 3, ids: ids(0)}, {kind: 'P', from: 4, ids: ids(0)}, {kind: 'P', from: 5, ids: ids(0)}, {kind: 'A', dt: time.Minute},
		},
		"served-in-time": {
			{kind: 'P', from: 3, ids: ids(0)}, {kind: 'S', ids: ids(0)}, {kind: 'A', dt: time.Minute},
		},
		"served-in-part": {
			{kind: 'P', from: 3, ids: ids(0, 1, 2)}, {kind: 'P', from: 4, ids: ids(2, 3)}, {kind: 'S', ids: ids(1, 1)},
			{kind: 'A', dt: 130 * time.Millisecond}, {kind: 'S', ids: ids(0, 3)}, {kind: 'A', dt: time.Second},
			{kind: 'S', ids: ids(2)}, {kind: 'A', dt: time.Second},
		},
		"duplicates-and-strays": {
			{kind: 'P', from: 3, ids: ids(2, 2, 19, 7)}, {kind: 'S', ids: ids(2, 2, 19, 11)}, {kind: 'P', from: 4, ids: ids(11, 2, 18)},
			{kind: 'A', dt: 200 * time.Millisecond}, {kind: 'S', ids: ids(7, 7)}, {kind: 'A', dt: time.Minute},
		},
		// The bug Stop had: PROPOSE, Stop, Start, PROPOSE again must
		// request again, and retry.
		"restart": {
			{kind: 'P', from: 3, ids: ids(5, 6)}, {kind: 'A', dt: 120 * time.Millisecond}, {kind: 'X'}, {kind: 'X'},
			{kind: 'P', from: 4, ids: ids(8)}, {kind: 'A', dt: time.Second}, {kind: 'G'}, {kind: 'G'},
			{kind: 'P', from: 4, ids: ids(5)}, {kind: 'A', dt: 30 * time.Millisecond}, {kind: 'X'}, {kind: 'G'},
			{kind: 'P', from: 5, ids: ids(5, 6)}, {kind: 'A', dt: time.Minute},
		},
	}
	// Deadlines 1 ms apart under 50 ms of jitter: later batches come due
	// before earlier ones, so timers are superseded, and some instants
	// carry several checks.
	var crowd []specOp
	for i := 0; i < 16; i++ {
		crowd = append(crowd, specOp{kind: 'P', from: 3 + wire.NodeID(i%3), ids: ids(stream.PacketID(i), stream.PacketID((i+5)%16))},
			specOp{kind: 'A', dt: time.Duration(i%3) * time.Millisecond})
	}
	crowd = append(crowd, specOp{kind: 'S', ids: ids(1, 4, 9)}, specOp{kind: 'A', dt: 140 * time.Millisecond},
		specOp{kind: 'S', ids: ids(0, 2, 3, 5, 6, 7)}, specOp{kind: 'A', dt: time.Minute})
	scenarios["crowd"] = crowd
	return scenarios
}

// eachSpecSetting calls fn for every route, retry policy and K.
func eachSpecSetting(fn func(flat bool, retry RetryPolicy, k int)) {
	for _, flat := range []bool{false, true} {
		for _, retry := range []RetryPolicy{RetrySameProposer, RetryRandomProposer} {
			for _, k := range []int{1, 2, 4} {
				fn(flat, retry, k)
			}
		}
	}
}

func TestRetransmitAgainstPerBatchTimers(t *testing.T) {
	for name, ops := range specScenarios() {
		eachSpecSetting(func(flat bool, retry RetryPolicy, k int) {
			t.Run(fmt.Sprintf("%s/flat=%v/retry=%d/K=%d", name, flat, retry, k), func(t *testing.T) {
				runSpec(t, flat, retry, k, ops)
				// The fuzzer's encoding must carry the scenario unchanged.
				if f, r, kk, decoded := decodeSpec(encodeSpec(flat, retry, k, ops)); f != flat || r != retry || kk != k ||
					!slices.EqualFunc(decoded, ops, func(a, b specOp) bool {
						return a.kind == b.kind && a.from == b.from && a.dt == b.dt && slices.Equal(a.ids, b.ids)
					}) {
					t.Fatalf("the script does not survive encoding: got %v", decoded)
				}
			})
		})
	}
}

func FuzzRetransmitAgainstPerBatchTimers(f *testing.F) {
	for _, ops := range specScenarios() {
		eachSpecSetting(func(flat bool, retry RetryPolicy, k int) { f.Add(encodeSpec(flat, retry, k, ops)) })
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		flat, retry, k, ops := decodeSpec(data)
		runSpec(t, flat, retry, k, ops)
	})
}

// specPeer is one peer of a shared-table script: the peer, its scripted
// environment and, on the flat route, the environment's flat face.
type specPeer struct {
	p   *Peer
	env *specEnv
}

// newSpecPeer builds a peer for the scripts on tab (nil: a private one,
// through NewPeer) with its own scripted environment, its random stream
// seeded seed, and starts it.
func newSpecPeer(t *testing.T, tab *Table, flat bool, cfg Config, seed int64) specPeer {
	t.Helper()
	env := &specEnv{rng: rand.New(rand.NewSource(seed))}
	fenv := &flatSpecEnv{specEnv: env}
	var penv Env = env
	if flat {
		penv = fenv
	}
	sampler := member.NewSparseView(9, 64, rand.New(rand.NewSource(1)))
	var p *Peer
	if tab == nil {
		var err error
		if p, err = NewPeer(penv, cfg, sampler, tinyLayout()); err != nil {
			t.Fatal(err)
		}
	} else {
		p = new(Peer)
		if err := p.Reset(tab, penv, cfg, sampler, tinyLayout()); err != nil {
			t.Fatal(err)
		}
	}
	fenv.peer = p
	p.Start()
	return specPeer{p: p, env: env}
}

// runShared plays ops to npeers peers interleaved on one Table, each step
// to the peer it names, and likewise to the same peers on private tables
// and to a per-batch-timer reference per peer. Sharing must be invisible:
// each peer sends, draws and counts what its private twin and its
// reference do, its own state stays consistent (checkPeerRet), and every
// record and batch of the table is held by exactly one peer or free
// (checkTable). Once every peer has stopped the table has lent out no
// record and no batch, and once every peer has left it, no block.
func runShared(t *testing.T, npeers int, flat bool, retry RetryPolicy, k int, ops []specOp) {
	t.Helper()
	cfg := testConfig()
	cfg.Retry, cfg.MaxRequests = retry, k
	cfg.Leech = true // the pull side alone, as in runSpec
	tab := NewTable()
	shared, private := make([]specPeer, npeers), make([]specPeer, npeers)
	models := make([]*perBatchPeer, npeers)
	for i := range shared {
		seed := int64(7 + i)
		shared[i] = newSpecPeer(t, tab, flat, cfg, seed)
		private[i] = newSpecPeer(t, nil, flat, cfg, seed)
		models[i] = &perBatchPeer{
			env: &specEnv{rng: rand.New(rand.NewSource(seed))}, cfg: cfg, total: tinyLayout().TotalPackets(),
			delivered: map[stream.PacketID]bool{}, requests: map[stream.PacketID]int{},
			proposers: map[stream.PacketID][]wire.NodeID{}, batches: map[*specBatch]func(){},
		}
		models[i].start()
	}
	sharedPeers := func() []*Peer {
		ps := make([]*Peer, npeers)
		for i := range shared {
			ps[i] = shared[i].p
		}
		return ps
	}
	for step, op := range ops {
		i := int(op.peer) % npeers
		for _, sp := range []specPeer{shared[i], private[i]} {
			switch op.kind {
			case 'P':
				sp.p.HandleMessage(op.from, wire.Propose{IDs: op.ids})
			case 'S':
				pkts := make([]*stream.Packet, len(op.ids))
				for j, id := range op.ids {
					pkts[j] = &stream.Packet{ID: id, Payload: make([]byte, tinyLayout().PayloadBytes)}
				}
				sp.p.HandleMessage(3, wire.Serve{Packets: pkts})
			case 'X':
				sp.p.Stop()
			case 'G':
				sp.p.Start()
			}
		}
		switch op.kind {
		case 'P':
			models[i].propose(op.from, op.ids)
		case 'S':
			models[i].serve(op.ids)
		case 'X':
			models[i].stop()
		case 'G':
			models[i].start()
		case 'A':
			for j := range npeers {
				shared[j].env.advance(op.dt)
				private[j].env.advance(op.dt)
				models[j].env.advance(op.dt)
			}
		}
		where := fmt.Sprintf("step %d (%c to peer %d of %d: %d %v %v)", step, op.kind, i, npeers, op.from, op.ids, op.dt)
		for j := range npeers {
			s, pv, m := shared[j], private[j], models[j]
			if !slices.Equal(s.env.sent, m.env.sent) || !slices.Equal(pv.env.sent, m.env.sent) {
				t.Fatalf("%s: peer %d sent %q on the shared table and %q on its own, a timer per batch sends %q",
					where, j, s.env.sent, pv.env.sent, m.env.sent)
			}
			got, own := s.p.Counters(), pv.p.Counters()
			if got != own {
				t.Fatalf("%s: peer %d counts %+v on the shared table, %+v on its own", where, j, got, own)
			}
			got.Rounds, got.RetIdleWakeups = 0, 0
			if got != m.counters {
				t.Fatalf("%s: peer %d counts %+v, a timer per batch %+v", where, j, got, m.counters)
			}
			if a, b, c := s.env.rng.Int63(), pv.env.rng.Int63(), m.env.rng.Int63(); a != c || b != c {
				t.Fatalf("%s: peer %d has drawn different random numbers on the shared table, on its own and in the reference", where, j)
			}
			if err := checkPeerRet(s.p, s.env, flat); err != nil {
				t.Fatalf("%s: peer %d on the shared table: %v", where, j, err)
			}
			if err := checkRetStructure(pv.p, pv.env, flat); err != nil {
				t.Fatalf("%s: peer %d on its own table: %v", where, j, err)
			}
		}
		if err := checkTable(tab, sharedPeers()...); err != nil {
			t.Fatalf("%s: shared table: %v", where, err)
		}
	}
	for _, s := range shared {
		s.p.Stop()
	}
	if records, batches, _ := tab.InUse(); records != 0 || batches != 0 {
		t.Fatalf("every peer stopped, and the table still lends %d records and %d batches", records, batches)
	}
	if err := checkTable(tab, sharedPeers()...); err != nil {
		t.Fatalf("after Stop: %v", err)
	}
	for _, s := range shared {
		s.p.release()
	}
	if records, batches, blocks := tab.InUse(); records != 0 || batches != 0 || blocks != 0 {
		t.Fatalf("every peer left the table, and it still lends %d records, %d batches and %d blocks", records, batches, blocks)
	}
}

// sharedSetting is eachSpecSetting's settings with two and three peers.
func eachSharedSetting(fn func(npeers int, flat bool, retry RetryPolicy, k int)) {
	for _, npeers := range []int{2, 3} {
		eachSpecSetting(func(flat bool, retry RetryPolicy, k int) { fn(npeers, flat, retry, k) })
	}
}

// spread deals a scenario's steps out to the peers sharing a table in
// turn, so that their records and batches interleave in the slabs.
func spread(ops []specOp) []specOp {
	out := slices.Clone(ops)
	for i := range out {
		out[i].peer = uint8(i)
	}
	return out
}

func TestSharedTableAgainstPerBatchTimers(t *testing.T) {
	for name, ops := range specScenarios() {
		eachSharedSetting(func(npeers int, flat bool, retry RetryPolicy, k int) {
			t.Run(fmt.Sprintf("%s/peers=%d/flat=%v/retry=%d/K=%d", name, npeers, flat, retry, k), func(t *testing.T) {
				runShared(t, npeers, flat, retry, k, spread(ops))
			})
		})
	}
}

// FuzzSharedTable runs scripts on two or three peers sharing one Table:
// the header's top bit picks how many, each step's opcode byte which.
func FuzzSharedTable(f *testing.F) {
	for _, ops := range specScenarios() {
		eachSharedSetting(func(npeers int, flat bool, retry RetryPolicy, k int) {
			data := encodeSpec(flat, retry, k, spread(ops))
			data[0] |= byte(npeers-2) << 7
			f.Add(data)
		})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		flat, retry, k, ops := decodeSpec(data)
		npeers := 2
		if len(data) > 0 && data[0]&0x80 != 0 {
			npeers = 3
		}
		runShared(t, npeers, flat, retry, k, ops)
	})
}
