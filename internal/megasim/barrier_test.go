package megasim

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"gossipstream/internal/shaping"
	"gossipstream/internal/wire"
)

// barrierDeadline bounds a barrier test's wait for its runs: a lost wake-up
// parks the supervisor and every worker forever, and the test must say so
// with the goroutine dump rather than hang the suite.
const barrierDeadline = 2 * time.Minute

// withDeadline runs fn and fails the test, dumping every goroutine, if it
// has not returned within barrierDeadline.
func withDeadline(t *testing.T, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(barrierDeadline):
		buf := make([]byte, 1<<20)
		t.Fatalf("runs still blocked after %v:\n%s", barrierDeadline, buf[:runtime.Stack(buf, true)])
	}
}

// sparseRun is the empty-window shape: one FEED-ME ping-pong between a node
// on the first shard and one on the last, far sparser than the lookahead,
// so nearly every conservative window holds a single event and costs a run
// phase and a merge phase on every shard. It returns the events executed.
func sparseRun(t *testing.T, shards int, hops uint64) uint64 {
	t.Helper()
	const lat = time.Millisecond
	e, err := New(Config{Shards: shards, Net: flatNet(lat)})
	if err != nil {
		t.Error(err)
		return 0
	}
	envs := make([]*NodeEnv, shards)
	for i := range envs {
		envs[i] = e.NodeEnv(NodeID(i), NewRand(int64(i)))
		e.AddNode(&echo{env: envs[i]}, shaping.Unlimited, 0)
	}
	envs[0].Send(NodeID(shards-1), wire.FeedMe{})
	if err := e.Run(time.Duration(hops) * lat); err != nil {
		t.Error(err)
	}
	return e.Fired()
}

// echo answers every message with a FEED-ME to its sender.
type echo struct{ env *NodeEnv }

func (h *echo) HandleMessage(from NodeID, _ wire.Message) { h.env.Send(from, wire.FeedMe{}) }

// TestBarrierStress drives the wake-up protocol through 10^5 one-event
// windows per shard count: alone (waiters spin while the shards fit
// GOMAXPROCS), and four engines at once (the process's shards exceed
// GOMAXPROCS, so every wait parks). Every run must finish and execute
// exactly one event per hop. A woken waiter that skipped its re-check —
// trusting a late wake-up from the previous phase — fails this in most
// runs at -cpu 1,2,4, as a short run or a hang.
func TestBarrierStress(t *testing.T) {
	hops := uint64(100_000)
	if raceEnabled {
		hops = 10_000 // the detector slows each window tenfold; CI repeats the test instead
	}
	for _, shards := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			withDeadline(t, func() {
				if got := sparseRun(t, shards, hops); got != hops {
					t.Errorf("alone: %d events, want %d", got, hops)
				}
			})
			withDeadline(t, func() {
				var wg sync.WaitGroup
				for i := 0; i < 4; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if got := sparseRun(t, shards, hops/4); got != hops/4 {
							t.Errorf("concurrent: %d events, want %d", got, hops/4)
						}
					}()
				}
				wg.Wait()
			})
		})
	}
	if n := runningShards.Load(); n != 0 {
		t.Fatalf("running-shard count %d after every run returned, want 0", n)
	}
}

// settledGoroutines waits until the goroutine count falls to want or below
// and returns the last count seen: a worker that has called workerWg.Done
// is still counted until it returns, and goroutines an earlier test left
// (a deadline timer) may exit meanwhile.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// panickingRun runs a chatter population on the given shards whose arm
// function installs the panic, and returns what Run panicked with.
func panickingRun(t *testing.T, shards int, arm func(e *Engine, envs []*NodeEnv)) (e *Engine, got any) {
	t.Helper()
	e, err := New(Config{Shards: shards, Seed: 3, Net: flatNet(2 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	envs := make([]*NodeEnv, n)
	for i := range envs {
		envs[i] = e.NodeEnv(NodeID(i), NewRand(int64(i)))
		c := &chatter{env: envs[i], n: n, period: time.Millisecond}
		e.AddNode(c, shaping.Unlimited, 0)
		c.start()
	}
	arm(e, envs)
	defer func() { got = recover() }()
	_ = e.Run(time.Second)
	return e, nil
}

// TestRunReleasesWorkersOnPanic: a panic on the supervisor — in an
// AtBarrier callback, or in a handler of shard 0, which the supervisor
// executes — propagates out of Run with every worker released and joined,
// the engine no longer running, and the process's running-shard count
// restored, at one shard (no worker) as at two.
func TestRunReleasesWorkersOnPanic(t *testing.T) {
	cases := map[string]func(e *Engine, envs []*NodeEnv){
		"barrier callback": func(e *Engine, _ []*NodeEnv) {
			e.AtBarrier(50*time.Millisecond, func() { panic("barrier boom") })
		},
		// Node 0 lives on shard 0; its timer fires mid-window while shard 1's
		// worker runs the same window.
		"shard-0 handler": func(_ *Engine, envs []*NodeEnv) {
			envs[0].After(50*time.Millisecond+time.Microsecond, func() { panic("handler boom") })
		},
	}
	for _, shards := range []int{1, 2} {
		for name, arm := range cases {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				before := runtime.NumGoroutine()
				shardsBefore := runningShards.Load()
				e, got := panickingRun(t, shards, arm)
				if got == nil {
					t.Fatal("Run returned without the panic")
				}
				if n := settledGoroutines(before); n > before {
					t.Fatalf("%d goroutines after the panic, %d before Run: workers leaked", n, before)
				}
				if e.stage != stageDone {
					t.Fatalf("after the panic: the engine is at stage %d, want done (%d)", e.stage, stageDone)
				}
				if n := runningShards.Load(); n != shardsBefore {
					t.Fatalf("running-shard count %d after the panic, want %d", n, shardsBefore)
				}
			})
		}
	}
}
