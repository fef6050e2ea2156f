// Megascale: run the paper's baseline scenario far beyond its 230-node
// testbed, one engine shard per core (internal/megasim), then print
// the same quality metrics the paper reports plus engine statistics.
//
//	go run ./examples/megascale                      # 10k nodes, one shard per core
//	go run ./examples/megascale -nodes 100000        # the full 100k scenario
//	go run ./examples/megascale -nodes 20000 -churn 0.2
//	go run ./examples/megascale -membership cyclon   # realistic partial views
//
// Sustained Poisson churn — ≈1% of the population joining and leaving per
// second, joiners bootstrapping into live Cyclon views at runtime:
//
//	go run ./examples/megascale -membership cyclon -churn poisson:0.01,0.01
//
// At large scale, -streaming retains no per-node rows — every run scores
// through the same fold as lifetimes close, so same numbers, flat memory:
//
//	go run ./examples/megascale -nodes 1000000 -streaming -progress
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"gossipstream"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "megascale:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("megascale", flag.ContinueOnError)
	fs.SetOutput(out)
	var rf gossipstream.RunFlags
	rf.Register(fs, runtime.GOMAXPROCS(0))
	rf.RegisterTelemetry(fs)
	nodes := fs.Int("nodes", 10_000, "system size including the source")
	secs := fs.Int("seconds", 30, "simulated seconds (stream + drain)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: usage already printed, not a failure
		}
		return err
	}
	switch {
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *secs < 1:
		return fmt.Errorf("-seconds %d: want >= 1", *secs)
	}

	cfg := gossipstream.ScaledExperiment(*nodes, rf.Shards, time.Duration(*secs)*time.Second)
	if err := rf.Apply(&cfg); err != nil {
		return err
	}

	// What the engine will run: 0 is its default of one shard, and it
	// never runs more shards than nodes.
	nShards := min(max(cfg.Shards, 1), cfg.Nodes)
	shardWord := "shards"
	if nShards == 1 {
		shardWord = "shard"
	}
	fmt.Fprintf(out, "simulating %d nodes × %ds of 600 kbps stream on %d %s (%s membership)...\n",
		*nodes, *secs, nShards, shardWord, cfg.Membership)
	res, wall, err := rf.Run(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "done in %v: %d events (%.0f events/s wall)\n",
		wall.Round(time.Millisecond), res.Events, float64(res.Events)/wall.Seconds())
	fmt.Fprintf(out, "survivors:                                 %d / %d\n", res.SurvivorCount(), res.NodeCount())
	fmt.Fprintf(out, "nodes viewing with <1%% jitter at 10 s lag: %5.1f%%\n",
		res.SurvivorViewablePct(10*time.Second, gossipstream.JitterThreshold))
	fmt.Fprintf(out, "nodes viewing with <1%% jitter offline:     %5.1f%%\n",
		res.SurvivorViewablePct(gossipstream.OfflineLag, gossipstream.JitterThreshold))
	fmt.Fprintf(out, "mean complete windows:                     %5.1f%%\n",
		res.SurvivorMeanCompletePct(gossipstream.OfflineLag))
	if cfg.ChurnProcess != nil && !cfg.ChurnProcess.IsZero() {
		fmt.Fprintf(out, "complete windows among present nodes:      %5.1f%% (%d nodes, joiners after bootstrap grace)\n",
			res.PresentMeanCompletePct(gossipstream.OfflineLag), res.PresentCount())
	}
	if loads := res.ShardLoads; len(loads) > 0 {
		lo, hi := loads[0].Events, loads[0].Events
		for _, l := range loads[1:] {
			lo, hi = min(lo, l.Events), max(hi, l.Events)
		}
		fmt.Fprintf(out, "shard load: %d..%d events/shard across %d %s\n", lo, hi, len(loads), shardWord)
	}

	// Network-wide conservation: every message is delivered, lands in a
	// drop counter (congestion, UDP loss, crashed endpoint), or was still
	// in flight when the simulation deadline hit — nothing vanishes
	// silently. The engine-wide aggregate is the ledger: it survives
	// -streaming's per-node state release and keeps counting what
	// dead-drops against a node after its result was captured.
	total := res.TotalTraffic
	var sent, recv uint64
	for k := range total.SentMsgs {
		sent += total.SentMsgs[k]
		recv += total.RecvMsgs[k]
	}
	inFlight := sent - recv - total.RandomDrops - total.DeadDrops
	fmt.Fprintf(out, "messages: %d sent, %d delivered, %d congestion-dropped,\n", sent, recv, total.CongestionDrops)
	fmt.Fprintf(out, "          %d lost (UDP), %d to/from crashed nodes, %d in flight at deadline\n",
		total.RandomDrops, total.DeadDrops, inFlight)

	if rf.Telemetry != "" {
		return gossipstream.WriteManifest(rf.Telemetry, res.Manifest("megascale"), out)
	}
	return nil
}
