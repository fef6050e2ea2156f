// Package wire is a hotalloc fixture shaped like the codec package's
// SERVE batch split: SplitServeInto is the marked hot root, and the
// fixture pins the clean/dirty contract for pooled backings — appends
// into pool-drawn capacity pass only when asserted with //lint:pooled,
// and the same append shape without the annotation is flagged.
package wire

type packet struct{ payload []byte }

type serve struct{ packets []*packet }

var pool [][]*packet

func grab() []*packet {
	if n := len(pool); n > 0 {
		b := pool[n-1]
		pool = pool[:n-1]
		return b[:0]
	}
	return nil
}

// SplitServeInto is the marked hot root.
//
//lint:hot runs once per request served
func SplitServeInto(dst []serve, packets []*packet) []serve {
	batch := grab()
	for _, p := range packets {
		batch = append(batch, p) // want `append in hot path \(SplitServeInto\)`

		//lint:pooled batch is a pooled fixed-capacity backing
		batch = append(batch, p) // annotated: fine
	}
	//lint:pooled dst is the caller's reusable batch scratch
	return append(dst, serve{packets: batch})
}

// recycle is NOT reachable from the root: its append is free.
func recycle(b []*packet) {
	pool = append(pool, b)
}
