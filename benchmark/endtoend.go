package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	gs "gossipstream"
)

// processStart stands in for main entry: package variables are initialised
// before main runs, a few milliseconds after the process image starts.
var processStart = time.Now()

// minReps is the fewest timed repetitions a run makes however short
// --seconds is: a median needs three.
const minReps = 3

// simStats are the simulated statistics of one run. A run is a pure function
// of (seed, shards), so every repetition of a workload must produce the same
// value, and two commits of a simulator-only change must agree on its digest.
type simStats struct {
	Events     uint64
	SimSeconds float64
	Traffic    gs.NetStats
	Complete   float64 // mean complete windows of the scored population, offline, %
	Complete10 float64 // same at a 10 s playout lag
}

func (s simStats) digest() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", s)
	return fmt.Sprintf("%016x", h.Sum64())
}

// totalTraffic returns the network-wide counters of a run. The classic
// kernel leaves Result.TotalTraffic zero; summing the nodes is equivalent.
func totalTraffic(res *gs.ExperimentResult) gs.NetStats {
	if res.Config.Shards > 0 {
		return res.TotalTraffic
	}
	t := res.SourceStats
	for i := range res.Nodes {
		t.Add(res.Nodes[i].Stats)
	}
	return t
}

func sum(xs []uint64) uint64 {
	var t uint64
	for _, x := range xs {
		t += x
	}
	return t
}

// observe extracts a run's simulated statistics and checks what must hold of
// any run: events were executed, and every message counted as sent was
// received, dropped for a recorded reason, or is still in flight (congestion
// drops happen before a message counts as sent).
func observe(res *gs.ExperimentResult) (simStats, error) {
	s := simStats{
		Events:     res.Events,
		SimSeconds: res.Duration.Seconds(),
		Traffic:    totalTraffic(res),
		Complete:   res.ScoredMeanCompletePct(gs.OfflineLag),
		Complete10: res.ScoredMeanCompletePct(10 * time.Second),
	}
	if s.Events == 0 || s.SimSeconds <= 0 {
		return s, fmt.Errorf("run executed %d events over %v simulated", s.Events, res.Duration)
	}
	t := s.Traffic
	inFlight := int64(sum(t.SentMsgs[:])) - int64(sum(t.RecvMsgs[:])) - int64(t.RandomDrops) - int64(t.DeadDrops)
	if inFlight < 0 {
		return s, fmt.Errorf("conservation broken: %d more messages received or dropped than sent", -inFlight)
	}
	if res.Config.Shards > 0 {
		pending := 0
		for _, l := range res.ShardLoads {
			pending += l.Pending
		}
		if inFlight > int64(pending) {
			return s, fmt.Errorf("conservation broken: %d messages unaccounted for with %d events pending", inFlight, pending)
		}
	}
	return s, nil
}

// rusage returns the user+system CPU seconds the process has used and its
// resident-set high-water mark in MB (Linux reports ru_maxrss in KiB).
func rusage() (cpuSeconds, peakRSSMB float64, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024, nil
}

// runCost is what one RunExperiment call cost the host: the whole call —
// build, simulate, score — with nothing excluded.
type runCost struct {
	wall, cpu     float64 // seconds
	mallocs       uint64
	allocBytes    uint64
	gcCycles      uint32
	gcCPU         float64 // seconds, from runtime/metrics
	heapLiveEndMB float64 // live heap after a forced GC with the result held
}

// measuredRun executes cfg once and measures the call. Two forced collections
// before it, outside the timed region, put every repetition on the same
// footing: the second one also empties the victim cache of every sync.Pool,
// which otherwise makes allocated bytes depend on where the last cycle fell.
func measuredRun(cfg gs.ExperimentConfig) (*gs.ExperimentResult, runCost, error) {
	runtime.GC()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCPUSeconds()
	cpu0, _, err := rusage()
	if err != nil {
		return nil, runCost{}, err
	}
	start := time.Now()
	res, err := gs.RunExperiment(cfg)
	wall := time.Since(start).Seconds()
	if err != nil {
		return nil, runCost{}, err
	}
	cpu1, _, err := rusage()
	if err != nil {
		return nil, runCost{}, err
	}
	gc1 := gcCPUSeconds()
	runtime.ReadMemStats(&m1)
	c := runCost{
		wall: wall, cpu: cpu1 - cpu0,
		mallocs: m1.Mallocs - m0.Mallocs, allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		gcCycles: m1.NumGC - m0.NumGC, gcCPU: gc1 - gc0,
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	c.heapLiveEndMB = float64(m1.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(res)
	return res, c, nil
}

// warmShare is the share of its stream the warm-up runs the workload on, at
// full population: building it, the first-call initialisation of every layer
// and a first window of traffic are all paid.
const warmShare = 0.2

// setUp is the benchmark's set-up: generate the inputs from the seed and run
// the warm-up, cold. It returns the time since process start, so process and
// first-call initialisation count.
func setUp(w workload, seed int64, sc scale) (float64, error) {
	res, err := gs.RunExperiment(w.build(seed, scale{sc.nodes, sc.time * warmShare}))
	if err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	if _, err := observe(res); err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	return time.Since(processStart).Seconds(), nil
}

// setUpInChild repeats setUp in a fresh process of this binary and returns
// the child's measurement.
func setUpInChild(exe string, w workload, seed int64) (float64, error) {
	cmd := exec.Command(exe, "-setup-only", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return 0, fmt.Errorf("set-up child printed %q: %w", out, err)
	}
	return v, nil
}

// endToEndOptions parameterise one untraced run of a workload.
type endToEndOptions struct {
	seed    int64
	seconds float64 // keep repeating until this much time was measured
	sc      scale
	// setupChildren is how many fresh processes repeat the set-up beside this
	// one; exe is the binary they run. Tests, which are not that binary, pass 0.
	setupChildren int
	exe           string
}

// endToEndResult is everything an untraced run learned.
type endToEndResult struct {
	metrics metricSet
	samples map[string]sample // the timings behind each median
	sim     simStats
	runs    int // simulations executed and checked in this process
}

// runEndToEnd measures one workload with tracing off: set-up (here and in
// fresh child processes), then timed repetitions of the whole RunExperiment
// call for at least opts.seconds, one at a time. Every repetition must agree
// exactly on the simulated statistics.
func runEndToEnd(w workload, opts endToEndOptions) (*endToEndResult, error) {
	own, err := setUp(w, opts.seed, opts.sc)
	if err != nil {
		return nil, err
	}
	setups := sample{own}
	for i := 0; i < opts.setupChildren; i++ {
		v, err := setUpInChild(opts.exe, w, opts.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, v)
	}

	cfg := w.build(opts.seed, opts.sc)
	out := &endToEndResult{samples: map[string]sample{"setup_s": setups}, runs: 1}
	measureStart := time.Now()
	for rep := 0; rep < minReps || time.Since(measureStart).Seconds() < opts.seconds; rep++ {
		res, cost, err := measuredRun(cfg)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", rep, err)
		}
		sim, err := observe(res)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", rep, err)
		}
		if rep == 0 {
			out.sim = sim
		} else if sim != out.sim {
			return nil, fmt.Errorf("repetition %d is not a replay of repetition 0: digest %s, was %s", rep, sim.digest(), out.sim.digest())
		}
		out.runs++
		perSimSecond := func(name string, v float64) {
			out.samples[name] = append(out.samples[name], v/sim.SimSeconds)
		}
		perSimSecond("wall_s_per_sim_s", cost.wall)
		perSimSecond("cpu_s_per_sim_s", cost.cpu)
		perSimSecond("allocs_per_sim_s", float64(cost.mallocs))
		perSimSecond("alloc_mb_per_sim_s", float64(cost.allocBytes)/1e6)
	}

	_, rss, err := rusage()
	if err != nil {
		return nil, err
	}
	out.metrics = metricSet{
		"peak_rss_mb":      rss,
		"complete_pct":     out.sim.Complete,
		"complete_pct_10s": out.sim.Complete10,
	}
	for name, s := range out.samples {
		out.metrics[name] = s.median()
	}
	return out, nil
}
