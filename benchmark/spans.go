package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanKind names one seam the traced twin times. The name's prefix is the
// layer (module) the time is charged to.
type spanKind uint8

const (
	spanCoreTimer    spanKind = iota // a callback core handed to Env.After: gossip round or retransmission
	spanCorePropose                  // Peer.HandleMessage(PROPOSE)
	spanCoreRequest                  // Peer.HandleMessage(REQUEST)
	spanCoreServe                    // Peer.HandleMessage(SERVE)
	spanCoreOther                    // Peer.HandleMessage of any other kind (FEED-ME)
	spanSend                         // NodeEnv.Send: shaper, loss draw, latency draw, schedule or outbox
	spanAfter                        // NodeEnv.After: timer schedule
	spanMemberSample                 // SparseView.Sample
	spanPssSample                    // pss.State.Sample
	spanPssTick                      // pss.State.Tick
	spanPssHandle                    // pss.State.Handle
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"core.timer", "core.propose", "core.request", "core.serve", "core.other",
	"megasim.send", "megasim.after",
	"member.sample", "pss.sample", "pss.tick", "pss.handle",
}

// spanStat accumulates every span of one kind. SelfNS is TotalNS minus the
// time covered by child spans, so self times of all kinds add up to the
// total of the top-level spans.
type spanStat struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"`
}

func (s *spanStat) add(o spanStat) {
	s.Count += o.Count
	s.TotalNS += o.TotalNS
	s.SelfNS += o.SelfNS
}

func (s spanStat) meanSelfNS() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SelfNS) / float64(s.Count)
}

// rawSpan is one recorded span. Parent indexes the same shard's span list
// (-1 for a span the engine loop opened).
type rawSpan struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Node    int32  `json:"node"`
}

// maxRawSpans bounds the raw spans kept per traced twin; the per-kind
// accumulators cover every span regardless.
const maxRawSpans = 10000

type openSpan struct {
	kind  spanKind
	start int64
	child int64 // time covered by already-closed children
	raw   int32 // index in raw, -1 when past the cap
}

// tracer records the spans of one shard. A shard runs one event at a time
// and every wrapper belongs to one node, hence one shard, so a tracer is
// never used concurrently and needs no atomics. The open-span stack charges
// a child's duration to its parent: self = span − children.
type tracer struct {
	clock  func() int64
	stats  [numSpanKinds]spanStat
	topNS  int64 // total duration of spans with no parent
	stack  [8]openSpan
	depth  int
	raw    []rawSpan
	rawCap int
}

func newTracer(clock func() int64, rawCap int) *tracer {
	return &tracer{clock: clock, rawCap: rawCap}
}

// wallClock returns a monotonic nanosecond clock.
func wallClock() func() int64 {
	base := time.Now()
	return func() int64 { return int64(time.Since(base)) }
}

func (t *tracer) begin(k spanKind, node int32) {
	if t.depth == len(t.stack) {
		panic("benchmark: span nesting deeper than the tracer's stack")
	}
	now := t.clock()
	raw := int32(-1)
	if len(t.raw) < t.rawCap {
		parent := int32(-1)
		if t.depth > 0 {
			parent = t.stack[t.depth-1].raw
		}
		raw = int32(len(t.raw))
		t.raw = append(t.raw, rawSpan{Name: spanNames[k], StartNS: now, Parent: parent, Node: node})
	}
	t.stack[t.depth] = openSpan{kind: k, start: now, raw: raw}
	t.depth++
}

func (t *tracer) end() {
	now := t.clock()
	t.depth--
	s := &t.stack[t.depth]
	dur := now - s.start
	st := &t.stats[s.kind]
	st.Count++
	st.TotalNS += dur
	st.SelfNS += dur - s.child
	if s.raw >= 0 {
		t.raw[s.raw].EndNS = now
	}
	if t.depth > 0 {
		t.stack[t.depth-1].child += dur
	} else {
		t.topNS += dur
	}
}

// spanDump is the file a traced run writes when it ends.
type spanDump struct {
	Workload string              `json:"workload"`
	Seed     int64               `json:"seed"`
	Twins    map[string]twinDump `json:"twins"`
}

type twinDump struct {
	Events  uint64              `json:"events"`
	Shards  int                 `json:"shards"`
	RunWall float64             `json:"run_wall_s"`
	Spans   map[string]spanStat `json:"spans"`
	Raw     [][]rawSpan         `json:"raw_by_shard"`
}

func (r *twinResult) dump() twinDump {
	d := twinDump{Events: r.events, Shards: len(r.tracers), RunWall: r.runWall.Seconds(), Spans: map[string]spanStat{}}
	for k, st := range r.stats {
		if st.Count > 0 {
			d.Spans[spanNames[k]] = st
		}
	}
	for _, t := range r.tracers {
		d.Raw = append(d.Raw, t.raw)
	}
	return d
}

func writeSpanDump(dir string, d spanDump) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", d.Workload, d.Seed))
	data, err := json.Marshal(d)
	if err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	return path, nil
}
