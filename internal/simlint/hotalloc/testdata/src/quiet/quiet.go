// Package quiet would trip every hotalloc check — if any function were
// marked //lint:hot. With none, the analyzer must stay silent.
package quiet

type shard struct{ heap []int }

func (s *shard) runWindow() {
	f := func() { s.heap = append(s.heap, 1) }
	f()
	var sink any = 42
	_ = sink
}
