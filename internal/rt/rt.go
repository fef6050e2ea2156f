// Package rt runs the gossip streaming protocol in real time over UDP
// sockets. It drives exactly the same engine (internal/core) as the
// discrete-event simulator, providing a deployable counterpart to the
// simulated experiments: the engine sees the same message types, the same
// wire sizes, and an Env backed by the wall clock and the kernel's UDP
// stack instead of virtual time.
//
// Topology is a static directory of node id → UDP address, suitable for
// LAN or localhost deployments and for the paper's fixed 230-node testbed
// model. Upload caps go through the simulator's own uplink model, a
// shaping.Shaper bounded at shaping.DefaultQueueBytes and charged the
// application bytes of each datagram: a datagram is written when the
// shaper says it departs, and one that would overflow the queue is
// dropped, as a simulated send is.
package rt

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"time"

	"gossipstream/internal/core"
	"gossipstream/internal/member"
	"gossipstream/internal/shaping"
	"gossipstream/internal/stream"
	"gossipstream/internal/wire"
)

// Config configures one live node.
type Config struct {
	// ID is this node's identity in the directory.
	ID wire.NodeID
	// Core carries the gossip protocol parameters.
	Core core.Config
	// Layout describes the stream being gossiped.
	Layout stream.Layout
	// UploadCapBps caps the node's uplink (shaping.Unlimited disables).
	UploadCapBps int64
	// Seed drives the node's randomness; 0 derives one from the ID.
	Seed int64
}

// Node is a live protocol participant bound to a UDP socket.
//
// Lifecycle: New → (AddPeer ...) → Start → Stop. All exported methods are
// safe for concurrent use.
type Node struct {
	cfg   Config
	conn  *net.UDPConn
	codec *wire.Codec

	mu    sync.Mutex
	peer  *core.Peer
	dir   map[wire.NodeID]*net.UDPAddr
	rng   *rand.Rand
	start time.Time

	uplink  shaping.Shaper
	sendQ   chan outgoing
	done    chan struct{}
	wg      sync.WaitGroup
	started bool
	stopped bool

	dropped uint64 // sends dropped at the full uplink or send queue
}

// sendQueueLen bounds a node's outgoing send queue in messages, as a full
// socket buffer would. An unlimited uplink drops only here; a capped one
// drops at its byte bound first unless its datagrams average under 32
// application bytes.
const sendQueueLen = 4096

// outgoing is a datagram waiting in the send queue for its departure, a
// time since Start.
type outgoing struct {
	to     wire.NodeID
	msg    wire.Message
	depart time.Duration
}

// New creates a node bound to bindAddr (e.g. "127.0.0.1:0"). If src is
// non-nil the node acts as the stream source.
func New(cfg Config, bindAddr string, src *stream.Source) (*Node, error) {
	if cfg.Seed == 0 {
		cfg.Seed = int64(cfg.ID) + 1
	}
	addr, err := net.ResolveUDPAddr("udp", bindAddr)
	if err != nil {
		return nil, fmt.Errorf("rt: resolve %q: %w", bindAddr, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("rt: listen %q: %w", bindAddr, err)
	}
	// Serve bursts are tens of datagrams at once (a whole requested batch);
	// enlarge kernel buffers so they do not silently drop. Best effort —
	// some platforms clamp these.
	_ = conn.SetReadBuffer(4 << 20)
	_ = conn.SetWriteBuffer(4 << 20)
	n := &Node{
		cfg:    cfg,
		conn:   conn,
		codec:  wire.NewCodec(cfg.Layout),
		dir:    make(map[wire.NodeID]*net.UDPAddr),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		uplink: *shaping.NewShaper(cfg.UploadCapBps, shaping.DefaultQueueBytes),
		sendQ:  make(chan outgoing, sendQueueLen),
		done:   make(chan struct{}),
	}
	env := &rtEnv{node: n}
	sampler := &dirSampler{node: n}
	var peer *core.Peer
	if src != nil {
		peer, err = core.NewSourcePeer(env, cfg.Core, sampler, src)
	} else {
		peer, err = core.NewPeer(env, cfg.Core, sampler, cfg.Layout)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	n.peer = peer
	return n, nil
}

// ID returns the node's identity.
func (n *Node) ID() wire.NodeID { return n.cfg.ID }

// Addr returns the node's bound UDP address.
func (n *Node) Addr() *net.UDPAddr { return n.conn.LocalAddr().(*net.UDPAddr) }

// AddPeer registers another node's address. Must be called for every peer
// before Start; the directory is the full membership the paper assumes.
func (n *Node) AddPeer(id wire.NodeID, addr *net.UDPAddr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dir[id] = addr
}

// Start launches the receive loop, the paced sender, and the gossip rounds.
func (n *Node) Start() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return errors.New("rt: node already started")
	}
	if len(n.dir) == 0 {
		return errors.New("rt: no peers registered")
	}
	n.started = true
	n.start = time.Now()
	n.wg.Add(2)
	go n.recvLoop()
	go n.sendLoop()
	n.peer.Start()
	return nil
}

// Stop terminates the node and waits for its goroutines.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	n.peer.Stop()
	n.mu.Unlock()

	close(n.done)
	n.conn.Close() // unblocks recvLoop
	n.wg.Wait()
}

// Receiver returns a consistent snapshot of delivery state for metrics.
// The engine keeps mutating its live receiver from timer and socket
// goroutines, so handing that pointer out would race with concurrent
// polling; a copy under the lock is cheap at metric-polling rates.
func (n *Node) Receiver() *stream.Receiver {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.peer.Receiver().Snapshot()
}

// Counters returns the engine's protocol counters.
func (n *Node) Counters() core.Counters {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.peer.Counters()
}

// recvLoop reads datagrams and dispatches them to the engine.
func (n *Node) recvLoop() {
	defer n.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		sz, _, err := n.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-n.done:
				return
			default:
				// Transient read errors on a live socket: keep serving.
				continue
			}
		}
		sender, msg, err := n.codec.Decode(buf[:sz])
		if err != nil {
			continue // malformed datagram, drop like any UDP stack
		}
		n.mu.Lock()
		if !n.stopped {
			n.peer.HandleMessage(wire.NodeID(sender), msg)
		}
		n.mu.Unlock()
	}
}

// sendLoop writes each outgoing datagram at its departure time.
func (n *Node) sendLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.done:
			return
		case out := <-n.sendQ:
			n.mu.Lock()
			addr := n.dir[out.to]
			n.mu.Unlock()
			if addr == nil {
				recycle(out.msg)
				continue
			}
			data, err := n.codec.Encode(uint32(n.cfg.ID), out.msg)
			// The datagram holds its own copy of a SERVE's packets.
			recycle(out.msg)
			if err != nil {
				continue
			}
			if wait := time.Until(n.start.Add(out.depart)); wait > 0 {
				select {
				case <-n.done:
					return
				case <-time.After(wait):
				}
			}
			// Best-effort UDP write; losses are the protocol's problem.
			_, _ = n.conn.WriteToUDP(data, addr)
		}
	}
}

// recycle hands a SERVE's packet-list backing back to wire's pool once the
// message has been encoded or dropped; the other kinds hold none.
func recycle(msg wire.Message) {
	if s, ok := msg.(wire.Serve); ok {
		wire.RecycleServe(s)
	}
}

// Dropped reports messages discarded because the uplink queue or the
// send queue was full.
func (n *Node) Dropped() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dropped
}

// rtEnv adapts the node to core.Env. Callers already hold n.mu when the
// engine runs, so rtEnv methods must not lock.
type rtEnv struct {
	node *Node
}

func (e *rtEnv) ID() wire.NodeID { return e.node.cfg.ID }

func (e *rtEnv) Now() time.Duration {
	if e.node.start.IsZero() {
		return 0
	}
	return time.Since(e.node.start)
}

// Send charges the uplink the message's application bytes, as the
// simulator does, and queues the datagram for its departure.
func (e *rtEnv) Send(to wire.NodeID, msg wire.Message) {
	n := e.node
	if depart, ok := n.uplink.Enqueue(e.Now(), msg.WireSize()-wire.UDPOverheadBytes); ok {
		select {
		case n.sendQ <- outgoing{to: to, msg: msg, depart: depart}:
			return
		default:
		}
	}
	n.dropped++
	recycle(msg)
}

func (e *rtEnv) After(d time.Duration, fn func()) func() {
	node := e.node
	t := time.AfterFunc(d, func() {
		node.mu.Lock()
		defer node.mu.Unlock()
		if node.stopped {
			return
		}
		fn()
	})
	return func() { t.Stop() }
}

func (e *rtEnv) Rand() *rand.Rand { return e.node.rng }

// dirSampler samples uniformly from the directory (full membership).
type dirSampler struct {
	node *Node
}

// Sample implements member.Sampler. The engine calls it with n.mu held.
func (s *dirSampler) Sample(k int) []wire.NodeID {
	ids := make([]wire.NodeID, 0, len(s.node.dir))
	for id := range s.node.dir {
		ids = append(ids, id)
	}
	// Map iteration order is random but not seeded; sort for determinism
	// before shuffling with the node's rng.
	slices.Sort(ids)
	rng := s.node.rng
	if k > len(ids) {
		k = len(ids)
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(ids)-i)
		ids[i], ids[j] = ids[j], ids[i]
	}
	return ids[:k]
}

var _ member.Sampler = (*dirSampler)(nil)
var _ core.Env = (*rtEnv)(nil)

// Cluster is a convenience harness: n nodes on localhost with a full
// directory, node 0 acting as the source.
type Cluster struct {
	Nodes []*Node
}

// NewCluster builds a localhost cluster of n nodes gossiping the given
// stream. Protocol parameters come from coreCfg; each node's uplink is
// capped at capBps.
func NewCluster(n int, coreCfg core.Config, layout stream.Layout, capBps int64, seed int64) (*Cluster, error) {
	if n < 2 {
		return nil, fmt.Errorf("rt: cluster of %d nodes", n)
	}
	src, err := stream.NewSource(layout, seed)
	if err != nil {
		return nil, err
	}
	c := &Cluster{}
	for i := 0; i < n; i++ {
		cfg := Config{
			ID:           wire.NodeID(i),
			Core:         coreCfg,
			Layout:       layout,
			UploadCapBps: capBps,
			Seed:         seed<<16 + int64(i) + 1,
		}
		var s *stream.Source
		if i == 0 {
			s = src
			cfg.UploadCapBps = shaping.Unlimited
		}
		node, err := New(cfg, "127.0.0.1:0", s)
		if err != nil {
			c.Stop()
			return nil, err
		}
		c.Nodes = append(c.Nodes, node)
	}
	for _, a := range c.Nodes {
		for _, b := range c.Nodes {
			if a != b {
				a.AddPeer(b.ID(), b.Addr())
			}
		}
	}
	return c, nil
}

// Start launches every node.
func (c *Cluster) Start() error {
	for _, n := range c.Nodes {
		if err := n.Start(); err != nil {
			return err
		}
	}
	return nil
}

// Stop terminates every node.
func (c *Cluster) Stop() {
	for _, n := range c.Nodes {
		if n != nil {
			n.Stop()
		}
	}
}
