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
// Start ('G').
type specOp struct {
	kind byte
	from wire.NodeID
	ids  []stream.PacketID
	dt   time.Duration
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
	flat, retry, k = h&1 != 0, RetrySameProposer, []int{1, 2, 4}[h>>2%3]
	if h&2 != 0 {
		retry = RetryRandomProposer
	}
	for len(data) > 0 && len(ops) < 256 {
		switch next() % 8 {
		case 0, 1, 2:
			ops = append(ops, specOp{kind: 'P', from: 3 + wire.NodeID(next()%3), ids: ids()})
		case 3, 4:
			ops = append(ops, specOp{kind: 'S', ids: ids()})
		case 5, 6:
			ops = append(ops, specOp{kind: 'A', dt: time.Duration(int(next())<<8|int(next())) * time.Millisecond})
		case 7:
			ops = append(ops, specOp{kind: "GX"[next()%2]})
		}
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
		switch op.kind {
		case 'P':
			out = append(out, 0, byte(op.from-3))
			ids(op.ids)
		case 'S':
			out = append(out, 3)
			ids(op.ids)
		case 'A':
			ms := op.dt / time.Millisecond
			out = append(out, 5, byte(ms>>8), byte(ms))
		case 'G':
			out = append(out, 7, 0)
		case 'X':
			out = append(out, 7, 1)
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

// checkRetStructure verifies the retransmission slabs of p against each
// other, against the request index and the known bits, and against the
// timers pending in its environment.
func checkRetStructure(p *Peer, env *specEnv, flat bool) error {
	isKnown := func(id stream.PacketID) bool { return p.known[id/64]&(1<<(id%64)) != 0 }
	// listed[ri] marks the request records some batch's list reaches.
	listed := make([]bool, len(p.reqs)+1)
	earliest, armed, records := time.Duration(0), 0, 0
	for bi := range p.batches {
		b := &p.batches[bi]
		if !b.armed {
			continue
		}
		if armed++; armed == 1 || b.due < earliest {
			earliest = b.due
		}
		if b.head == 0 {
			return fmt.Errorf("batch %d is armed with no id undelivered", bi)
		}
		prev := uint32(0)
		for ri := b.head; ri != 0; prev, ri = ri, p.reqs[ri-1].next {
			if int(ri) > len(p.reqs) || listed[ri] {
				return fmt.Errorf("batch %d: the list reaches record %d twice or outside the %d-record slab", bi, ri, len(p.reqs))
			}
			listed[ri] = true
			records++
			st := &p.reqs[ri-1]
			switch {
			case st.prev != prev:
				return fmt.Errorf("batch %d: record %d follows %d but links back to %d", bi, ri, prev, st.prev)
			case st.batch != uint32(bi)+1:
				return fmt.Errorf("batch %d holds record %d, which names batch %d", bi, ri, int(st.batch)-1)
			case p.index.get(st.id) != ri:
				return fmt.Errorf("batch %d holds record %d for id %d, whose record in the index is %d", bi, ri, st.id, p.index.get(st.id))
			case !isKnown(st.id):
				return fmt.Errorf("batch %d holds record %d for id %d, whose known bit is clear", bi, ri, st.id)
			case p.recv.Has(st.id):
				return fmt.Errorf("id %d is delivered and still has a request record", st.id)
			case st.requests < 1 || int(st.requests) > p.cfg.MaxRequests:
				return fmt.Errorf("id %d has used %d of %d requests", st.id, st.requests, p.cfg.MaxRequests)
			}
		}
	}
	if p.cfg.MaxRequests == 1 && len(p.reqs) > 0 {
		return fmt.Errorf("K = 1 and %d request records made", len(p.reqs))
	}
	// The index holds exactly the listed records, each under its own id.
	occupied := 0
	for _, slot := range p.index.slots {
		if slot == 0 {
			continue
		}
		occupied++
		id, ri := stream.PacketID(slot>>32-1), uint32(slot)
		if ri == 0 || int(ri) > len(p.reqs) || !listed[ri] || p.reqs[ri-1].id != id {
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
	freeReqs, freeBatches := 0, 0
	for ri := p.reqFree; ri != 0; ri = p.reqs[ri-1].next {
		if freeReqs++; int(ri) > len(p.reqs) || freeReqs > len(p.reqs) {
			return fmt.Errorf("the request free chain loops or leaves the %d-record slab", len(p.reqs))
		}
		if st := p.reqs[ri-1]; st != (requestState{next: st.next}) || listed[ri] {
			return fmt.Errorf("free request record %d is still in use: %+v", ri, st)
		}
	}
	for bi := p.batchFree; bi != 0; bi = p.batches[bi-1].head {
		if freeBatches++; int(bi) > len(p.batches) || freeBatches > len(p.batches) {
			return fmt.Errorf("the batch free chain loops or leaves the %d-batch slab", len(p.batches))
		}
		if p.batches[bi-1].armed {
			return fmt.Errorf("batch %d is armed and on the free chain", bi-1)
		}
	}
	if len(p.reqs)-freeReqs != records || len(p.batches)-freeBatches != armed {
		return fmt.Errorf("free chains out of step: %d/%d request records free, %d/%d batches free with %d armed",
			freeReqs, len(p.reqs), freeBatches, len(p.batches), armed)
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
