// Package stream is a wallclock fixture: a simulation package reading
// the host clock or the process-global RNG stream.
//
//lint:deterministic the fixture stands for a simulation package
package stream

import (
	"math/rand"
	"time"
)

type window struct {
	opened time.Duration
	rng    *rand.Rand
}

// badClock reads wall time five different ways.
func badClock() time.Duration {
	start := time.Now()             // want `time\.Now reads the wall clock`
	time.Sleep(time.Millisecond)    // want `time\.Sleep blocks on real time`
	t := time.NewTimer(time.Second) // want `time\.NewTimer constructs a real timer`
	<-time.After(time.Millisecond)  // want `time\.After constructs a real timer`
	defer t.Stop()
	return time.Since(start) // want `time\.Since reads the wall clock`
}

// badGlobalRand draws from the process-wide stream.
func badGlobalRand(n int) int {
	rand.Shuffle(n, func(i, j int) {}) // want `global math/rand stream \(rand\.Shuffle\)`
	return rand.Intn(n)                // want `global math/rand stream \(rand\.Intn\)`
}

// goodVirtualTime: Duration arithmetic, constants, and draws from a
// private stream are the sanctioned forms.
func (w *window) goodVirtualTime(now time.Duration) bool {
	deadline := w.opened + 250*time.Millisecond
	if w.rng.Float64() < 0.5 { // method on a private stream: fine
		deadline += time.Duration(w.rng.Intn(10)) * time.Millisecond
	}
	return now > deadline
}
