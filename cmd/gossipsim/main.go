// Command gossipsim runs a single simulated deployment of the gossip
// streaming system and prints its quality, lag, and bandwidth metrics.
//
// Example — the paper's baseline (230 nodes, 700 kbps caps, fanout 7):
//
//	gossipsim
//
// Example — a static mesh under 30% catastrophic churn:
//
//	gossipsim -refresh 0 -churn 0.3
//
// Example — 100k nodes on the sharded engine, 8 shards, a short stream;
// the report ends with the engine's speed, the events each shard ran and
// the network-wide message ledger:
//
//	gossipsim -nodes 100000 -shards 8 -windows 14
//
// Example — sustained Poisson churn (1% of the population joining and
// leaving per second) over Cyclon partial views, with runtime bootstrap:
//
//	gossipsim -nodes 10000 -shards 8 -windows 9 -membership cyclon -churn poisson:0.01,0.01
//
// Example — the same departure schedule announced gracefully (LEAVE
// messages shed leavers from live views immediately), a 10× flash crowd
// joining over 10 s, and a population where a fifth of the nodes
// free-ride:
//
//	gossipsim -nodes 10000 -shards 8 -windows 9 -membership cyclon -churn graceful:0.01,0.01
//	gossipsim -nodes 1000 -shards 8 -windows 9 -membership cyclon -churn flash:10,10
//	gossipsim -nodes 1000 -shards 8 -windows 9 -membership cyclon -freeriders 0.2
//
// Example — a large run that retains no per-node rows (-streaming; the
// scores are unchanged), with a live progress line and a JSON run manifest:
//
//	gossipsim -nodes 100000 -shards 8 -windows 14 -streaming -progress -telemetry run.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"runtime/trace"
	"time"

	"gossipstream"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gossipsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gossipsim", flag.ContinueOnError)
	fs.SetOutput(out)
	var rf gossipstream.RunFlags
	rf.Register(fs)
	rf.RegisterTelemetry(fs)
	var (
		nodes    = fs.Int("nodes", 230, "system size including the source")
		fanout   = fs.Int("fanout", 7, "gossip fanout f")
		refresh  = fs.Int("refresh", 1, "view refresh rate X (0 = never, the paper's ∞)")
		feed     = fs.Int("feed", 0, "feed-me rate Y (0 = disabled, the paper's ∞)")
		capKbps  = fs.Int64("cap", 700, "upload cap per node in kbps (0 = unlimited)")
		windows  = fs.Int("windows", 120, "stream length in 110-packet windows")
		riders   = fs.Float64("freeriders", 0, "fraction of nodes that free-ride: receive the stream but never propose or serve")
		verbose  = fs.Bool("v", false, "print per-node detail (not kept under -streaming)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this path")
		memProf  = fs.String("memprofile", "", "write a heap profile (taken after the run) to this path")
		traceOut = fs.String("trace", "", "write a runtime execution trace to this path")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: usage already printed, not a failure
		}
		return err
	}
	switch {
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *nodes < 2:
		return fmt.Errorf("-nodes %d: need at least a source and one peer", *nodes)
	case *fanout < 1:
		return fmt.Errorf("-fanout %d: want >= 1", *fanout)
	case *refresh < 0:
		return fmt.Errorf("-refresh %d: want >= 0", *refresh)
	case *feed < 0:
		return fmt.Errorf("-feed %d: want >= 0", *feed)
	case *capKbps < 0:
		return fmt.Errorf("-cap %d: want >= 0", *capKbps)
	case *windows < 1:
		return fmt.Errorf("-windows %d: want >= 1", *windows)
	case *riders < 0 || *riders > 1:
		return fmt.Errorf("-freeriders %v: want a fraction in [0, 1]", *riders)
	}

	cfg := gossipstream.DefaultExperiment()
	cfg.Nodes = *nodes
	cfg.Protocol.Fanout = *fanout
	cfg.Protocol.RefreshEvery = *refresh
	cfg.Protocol.FeedEvery = *feed
	cfg.UploadCapBps = *capKbps * 1000
	cfg.Layout.Windows = *windows
	cfg.FreeRiders = *riders
	if err := rf.Apply(&cfg); err != nil {
		return err
	}
	if *verbose && rf.Streaming {
		return errors.New("-v needs per-node results, which -streaming does not retain")
	}

	stopProf, err := startProfiling(*cpuProf, *traceOut)
	if err != nil {
		return err
	}
	res, wall, err := rf.Run(cfg)
	stopProf()
	if err != nil {
		return err
	}
	if *memProf != "" {
		if err := writeHeapProfile(*memProf); err != nil {
			return err
		}
	}
	// res.Config holds the normalized configuration (the default shard
	// count resolved, a count above the node count clamped), so report
	// from it, not the request.
	shardWord := "shards"
	if res.Config.Shards == 1 {
		shardWord = "shard"
	}
	fmt.Fprintf(out, "simulated %v of a %d-node system in %v (%d events, sharded engine, %d %s)\n",
		res.Duration.Round(time.Second), cfg.Nodes, wall.Round(time.Millisecond), res.Events, res.Config.Shards, shardWord)
	fmt.Fprintf(out, "stream: %d kbps, %d windows of %d+%d packets\n",
		cfg.Layout.RateBps/1000, cfg.Layout.Windows, cfg.Layout.DataPerWindow, cfg.Layout.ParityPerWindow)
	fmt.Fprintf(out, "protocol: fanout %d, X=%s, Y=%s, cap %d kbps, membership %s\n",
		cfg.Protocol.Fanout, rate(cfg.Protocol.RefreshEvery), rate(cfg.Protocol.FeedEvery), cfg.UploadCapBps/1000, cfg.Membership)
	fmt.Fprintln(out)
	fmt.Fprintf(out, "%-*s %8s\n", labelWidth, "metric", "value")
	fmt.Fprintf(out, "%-*s %7d / %d\n", labelWidth, "survivors / nodes", res.SurvivorCount(), res.NodeCount())
	for _, lag := range []struct {
		name string
		d    time.Duration
	}{
		{"viewable (<1% jitter) @10s", 10 * time.Second},
		{"viewable (<1% jitter) @20s", 20 * time.Second},
		{"viewable (<1% jitter) offline", gossipstream.OfflineLag},
	} {
		fmt.Fprintf(out, "%-*s %7.1f%%\n", labelWidth, lag.name,
			res.SurvivorViewablePct(lag.d, gossipstream.JitterThreshold))
	}
	fmt.Fprintf(out, "%-*s %7.1f%%\n", labelWidth, "mean complete windows @20s",
		res.SurvivorMeanCompletePct(20*time.Second))
	fmt.Fprintf(out, "%-*s %7.1f%%\n", labelWidth, "mean complete windows offline",
		res.SurvivorMeanCompletePct(gossipstream.OfflineLag))

	if cfg.ChurnProcess != nil && !cfg.ChurnProcess.IsZero() {
		// Sustained churn: survivor metrics over all stream windows would
		// punish joiners for windows published before they existed. Score
		// each node over the windows it was present for (after a bootstrap
		// grace of a few shuffle periods).
		fmt.Fprintln(out)
		fmt.Fprintf(out, "sustained churn: %d joined, %d left; %d of %d nodes present for >= 1 whole window\n",
			res.JoinedCount(), res.DepartedCount(), res.PresentCount(), res.NodeCount())
		fmt.Fprintf(out, "%-*s %7.1f%%\n", labelWidth, "complete windows (present)",
			res.PresentMeanCompletePct(gossipstream.OfflineLag))
	}

	if cfg.FreeRiders > 0 {
		// Service asymmetry: score the leeching class against the nodes
		// actually serving, over lifetime-eligible windows.
		fmt.Fprintln(out)
		fmt.Fprintf(out, "free-riders: %d of %d scored nodes leech (never propose or serve)\n",
			res.ClassCount(true), res.ClassCount(true)+res.ClassCount(false))
		fmt.Fprintf(out, "%-*s %7.1f%%\n", labelWidth, "complete windows (riders)",
			res.ClassMeanCompletePct(true, gossipstream.OfflineLag))
		fmt.Fprintf(out, "%-*s %7.1f%%\n", labelWidth, "complete windows (servers)",
			res.ClassMeanCompletePct(false, gossipstream.OfflineLag))
	}

	if dist := res.UploadDistribution(); len(dist) > 0 {
		fmt.Fprintf(out, "%-*s %7.0f / %.0f / %.0f kbps\n", labelWidth, "upload max/median/min",
			dist[0], dist[len(dist)/2], dist[len(dist)-1])
	} else if sum := res.UploadSummary(); sum.Count > 0 {
		// No rows retained (-streaming): report the fold's histogram
		// digest of the same rates.
		fmt.Fprintf(out, "%-*s %7d / %d / %d kbps\n", labelWidth, "upload max/median/min",
			sum.Max, sum.P50, sum.Min)
	}

	fmt.Fprintln(out)
	lo, hi := res.ShardLoads[0].Events, res.ShardLoads[0].Events
	for _, l := range res.ShardLoads[1:] {
		lo, hi = min(lo, l.Events), max(hi, l.Events)
	}
	fmt.Fprintf(out, "engine: %.0f events/s of wall time, %d..%d events per shard\n",
		float64(res.Events)/wall.Seconds(), lo, hi)
	// Network-wide conservation: every message is delivered, lands in a
	// drop counter (UDP loss, crashed endpoint), or was still in flight
	// when the simulation deadline hit; a congestion drop is never sent.
	// The engine-wide aggregate is the ledger: it survives -streaming's
	// per-node state release and keeps counting what dead-drops against a
	// node after its result was captured.
	total := res.TotalTraffic
	var sent, recv uint64
	for k := range total.SentMsgs {
		sent += total.SentMsgs[k]
		recv += total.RecvMsgs[k]
	}
	fmt.Fprintf(out, "messages: %d sent, %d delivered, %d congestion-dropped,\n", sent, recv, total.CongestionDrops)
	fmt.Fprintf(out, "          %d lost (UDP), %d to/from crashed nodes, %d in flight at deadline\n",
		total.RandomDrops, total.DeadDrops, sent-recv-total.RandomDrops-total.DeadDrops)

	if *verbose {
		fmt.Fprintln(out)
		fmt.Fprintf(out, "%5s %9s %8s %9s %9s %7s\n", "node", "complete%", "upload", "requests", "retrans", "alive")
		var requests, retrans, checks, retired, idle int
		for _, n := range res.Nodes {
			fmt.Fprintf(out, "%5d %8.1f%% %5.0fkb %9d %9d %7v\n",
				n.ID,
				100*n.Quality.CompleteFraction(gossipstream.OfflineLag),
				n.UploadKbps,
				n.Counters.RequestsSent,
				n.Counters.Retransmissions,
				n.Survived)
			requests += n.Counters.RequestsSent
			retrans += n.Counters.Retransmissions
			checks += n.Counters.RetChecks
			retired += n.Counters.RetBatchesRetired
			idle += n.Counters.RetIdleWakeups
		}
		// What became of the retransmission deadlines: a batch is retired by
		// the SERVE that completes it or checked when it comes due, and a
		// timer that fires with nothing due was an idle wakeup.
		fmt.Fprintf(out, "%5s %9s %8s %9d %9d\n", "total", "", "", requests, retrans)
		fmt.Fprintf(out, "retransmission batches: %d retired by a SERVE, %d checked at their deadline; %d idle timer wakeups\n",
			retired, checks, idle)
	}

	if rf.Telemetry != "" {
		return gossipstream.WriteManifest(rf.Telemetry, res.Manifest("gossipsim"), out)
	}
	return nil
}

// labelWidth is the width of the report's label column, which fits its
// longest labels, "viewable (<1% jitter) offline" and "mean complete
// windows offline".
const labelWidth = 29

// startProfiling starts the requested CPU profile and execution trace;
// the returned stop func is safe to call once whether or not anything
// was started.
func startProfiling(cpuPath, tracePath string) (stop func(), err error) {
	var stops []func()
	stop = func() {
		for _, fn := range stops {
			fn()
		}
	}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return stop, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return stop, fmt.Errorf("-cpuprofile: %w", err)
		}
		stops = append(stops, func() { pprof.StopCPUProfile(); f.Close() })
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return stop, fmt.Errorf("-trace: %w", err)
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return stop, fmt.Errorf("-trace: %w", err)
		}
		stops = append(stops, func() { trace.Stop(); f.Close() })
	}
	return stop, nil
}

// writeHeapProfile captures a post-run heap profile.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("-memprofile: %w", err)
	}
	defer f.Close()
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		return fmt.Errorf("-memprofile: %w", err)
	}
	return nil
}

func rate(v int) string {
	if v == gossipstream.Never {
		return "inf"
	}
	return fmt.Sprintf("%d", v)
}
