package megasim

import (
	"math/rand"
	"testing"
	"time"
)

// The queue microbenchmarks measure steady-state scheduler throughput at
// realistic occupancy: ~100k pending events spaced like gossip traffic
// (clustered around the shuffle/tick period with jitter), hold-model
// style — every pop schedules a successor one period ahead, the way
// ticks, timers, and in-flight deliveries actually regenerate. Reported
// events/s counts each push and each pop as one event operation. "Heap"
// is the radix heap, the shard's only queue.

const (
	benchQueueOccupancy = 100_000
	benchQueuePeriod    = 200 * time.Millisecond
)

// benchQueueJitter pre-draws successor jitters so RNG cost stays out of
// the measured loop, and prefills q to steady-state occupancy.
func benchQueueSetup(q *radixQueue) []time.Duration {
	rng := rand.New(rand.NewSource(42))
	jitter := make([]time.Duration, 1024)
	for i := range jitter {
		jitter[i] = time.Duration(rng.Int63n(int64(benchQueuePeriod / 4)))
	}
	for i := 0; i < benchQueueOccupancy; i++ {
		q.push(event{at: time.Duration(rng.Int63n(int64(benchQueuePeriod)))})
	}
	return jitter
}

func BenchmarkMegasimQueueOpsHeap(b *testing.B) {
	q := newRadixQueue()
	jitter := benchQueueSetup(q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := q.pop()
		ev.at += benchQueuePeriod + jitter[i&1023]
		q.push(ev)
	}
	b.StopTimer()
	b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "events/s")
}
