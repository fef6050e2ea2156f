package gossipstream_test

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"gossipstream"
)

// The paper's baseline deployment at a quarter of its size: 60 nodes
// gossiping a ≈50 s, 600 kbps stream under 700 kbps upload caps, and the
// stream quality every node experiences. A run is a function of its seed,
// so the output is exact.
func ExampleRunExperiment() {
	cfg := gossipstream.DefaultExperiment()
	cfg.Nodes = 60
	cfg.Layout.Windows = 30
	cfg.Drain = 30 * time.Second

	res, err := gossipstream.RunExperiment(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}

	qs := res.SurvivorQualities()
	fmt.Printf("simulated %d nodes streaming %.0f s of 600 kbps video\n",
		cfg.Nodes, cfg.Layout.Duration().Seconds())
	fmt.Printf("nodes viewing with <1%% jitter at 10 s lag: %5.1f%%\n",
		gossipstream.PercentViewable(qs, 10*time.Second, gossipstream.JitterThreshold))
	fmt.Printf("nodes viewing with <1%% jitter offline:     %5.1f%%\n",
		gossipstream.PercentViewable(qs, gossipstream.OfflineLag, gossipstream.JitterThreshold))
	fmt.Printf("mean complete windows:                     %5.1f%%\n",
		gossipstream.MeanCompleteFraction(qs, gossipstream.OfflineLag))

	// Per-node critical lag: the smallest buffering delay giving smooth
	// playback (the paper's Figure 2 quantity).
	fmt.Println("critical lag of the first five peers:")
	for _, n := range res.Nodes[:5] {
		if lag, ok := n.Quality.CriticalLag(gossipstream.JitterThreshold); ok {
			fmt.Printf("  node %d: %.1fs\n", n.ID, lag.Seconds())
		} else {
			fmt.Printf("  node %d: never reaches 99%% completeness\n", n.ID)
		}
	}
	// Output:
	// simulated 60 nodes streaming 53 s of 600 kbps video
	// nodes viewing with <1% jitter at 10 s lag:  93.2%
	// nodes viewing with <1% jitter offline:     100.0%
	// mean complete windows:                     100.0%
	// critical lag of the first five peers:
	//   node 1: 4.8s
	//   node 2: 3.9s
	//   node 3: 5.1s
	//   node 4: 6.2s
	//   node 5: 6.2s
}

// The paper's central finding (Figure 1) at about a third of its scale:
// under constrained bandwidth, stream quality is bell-shaped in the gossip
// fanout. Too small a fanout does not reach every node; too large a one
// floods the 700 kbps uplinks.
func ExampleFigure1() {
	opts := gossipstream.FigureOptions{Scale: 0.35}
	fanouts := []int{3, 4, 5, 7, 10, 15, 25, 40}

	cfg := opts.BaseConfig()
	fmt.Printf("%d nodes (ln n = %.1f), cap %d kbps\n",
		cfg.Nodes, math.Log(float64(cfg.Nodes)), cfg.UploadCapBps/1000)

	tb, _, err := gossipstream.Figure1(opts, fanouts)
	if err != nil {
		fmt.Println(err)
		return
	}
	// Columns: fanout, then % of nodes viewable offline, at 20 s and at
	// 10 s lag, then mean complete windows; a bar plots the offline column.
	fmt.Println("fanout  offline  @20s  @10s  complete")
	for i := range fanouts {
		row := tb.Row(i)
		offline, _ := strconv.ParseFloat(row[1], 64)
		fmt.Printf("%6s %8s %5s %5s %9s |%s\n",
			row[0], row[1], row[2], row[3], row[4], strings.Repeat("#", int(offline/4)))
	}
	// Output:
	// 80 nodes (ln n = 4.4), cap 700 kbps
	// fanout  offline  @20s  @10s  complete
	//      3      0.0   0.0   0.0      81.4 |
	//      4     64.6  64.6  63.3      98.8 |################
	//      5     98.7  98.7  98.7     100.0 |########################
	//      7    100.0 100.0  97.5     100.0 |#########################
	//     10     96.2  96.2  65.8      99.9 |########################
	//     15     92.4  92.4  13.9      99.8 |#######################
	//     25     46.8  46.8   0.0      98.1 |###########
	//     40      0.0   0.0   0.0      89.7 |
}

// The paper's churn experiment (§4.3): a fifth of the system fails at
// once mid-stream, and a view refreshed every round (X = 1) rides it out
// where a static mesh (X = ∞) degrades badly.
//
// The run has 80 nodes, about a third of the paper's 230-node testbed, and
// its figures are this scale's, not the paper's; `go run ./cmd/figures
// -only claim` runs the claim at 230 nodes.
//
// "Unaffected" counts the survivors that miss no window at 20 s lag, so it
// ranks X = 20 below X = ∞ while mean completeness ranks them the other
// way. At this scale both lose windows from the first one on, crash or no
// crash: in the same deployment without the crash, no survivor at X = 20
// and 7 of 79 at X = ∞ miss nothing. Partners held for 20 rounds spread the
// loss over every node (with the crash, each of the 63 survivors misses 2
// to 18 of the 40 windows); partners held forever put it on a fixed set
// (16 survivors miss nothing, 34 miss more than 20).
func ExampleCatastrophe() {
	base := gossipstream.DefaultExperiment()
	base.Nodes = 80
	base.Layout.Windows = 40
	base.Drain = 40 * time.Second

	churnAt := base.Layout.Duration() / 2
	fmt.Printf("%d nodes; 20%% crash simultaneously at t=%.0fs\n", base.Nodes, churnAt.Seconds())

	for _, x := range []int{1, 2, 20, gossipstream.Never} {
		cfg := base
		cfg.Protocol.RefreshEvery = x
		cfg.Churn = gossipstream.Catastrophe(churnAt, 0.2)
		res, err := gossipstream.RunExperiment(cfg)
		if err != nil {
			fmt.Println(err)
			return
		}
		label := strconv.Itoa(x)
		if x == gossipstream.Never {
			label = "inf"
		}
		qs := res.SurvivorQualities()
		fmt.Printf("X=%-4s unaffected survivors (20s lag): %5.1f%%   mean complete windows: %5.1f%%\n",
			label,
			gossipstream.PercentViewable(qs, 20*time.Second, gossipstream.JitterThreshold),
			gossipstream.MeanCompleteFraction(qs, 20*time.Second))
	}

	// The paper's §1 claim, measured on the X = 1 run: who lost nothing,
	// and whether the rest lost only a few seconds around the crash.
	claim, err := gossipstream.ChurnClaim(gossipstream.FigureOptions{Base: &base})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("X=1: unaffected %.1f%%, mean outage %.1fs, outages within ±10s of the crash %.1f%%\n",
		claim.UnaffectedPct, claim.MeanOutage.Seconds(), claim.OutageNearChurnPct)
	// Output:
	// 80 nodes; 20% crash simultaneously at t=35s
	// X=1    unaffected survivors (20s lag):  60.3%   mean complete windows:  99.0%
	// X=2    unaffected survivors (20s lag):  39.7%   mean complete windows:  97.9%
	// X=20   unaffected survivors (20s lag):   0.0%   mean complete windows:  77.3%
	// X=inf  unaffected survivors (20s lag):  25.4%   mean complete windows:  45.5%
	// X=1: unaffected 60.3%, mean outage 1.8s, outages within ±10s of the crash 100.0%
}

// The paper studies gossip streaming "in various upload-bandwidth
// distributions". A homogeneous 700 kbps population against a mixed one of
// about the same mean capacity: half weak uploaders (500 kbps), a third mid
// (700 kbps), the rest strong (1500 kbps). Gossip shifts serve load onto
// the strong nodes, which shows in the spread of the upload rates.
func ExampleExperimentConfig_uploadCapMix() {
	base := gossipstream.DefaultExperiment()
	base.Nodes = 80
	base.Layout.Windows = 40
	base.Drain = 40 * time.Second

	mixed := base
	// The palette is cycled over the nodes; its mean is
	// (3·500 + 2·700 + 1500)/6 ≈ 733 kbps.
	mixed.UploadCapMix = []int64{
		500_000, 500_000, 500_000,
		700_000, 700_000,
		1_500_000,
	}

	for _, tc := range []struct {
		name string
		cfg  gossipstream.ExperimentConfig
	}{
		{"homogeneous 700 kbps", base},
		{"mixed 500/700/1500 kbps", mixed},
	} {
		res, err := gossipstream.RunExperiment(tc.cfg)
		if err != nil {
			fmt.Println(err)
			return
		}
		qs := res.SurvivorQualities()
		dist := res.UploadDistribution()
		fmt.Printf("%-24s viewable@20s %5.1f%%  mean complete %5.1f%%  upload max/med/min %4.0f/%4.0f/%4.0f kbps\n",
			tc.name,
			gossipstream.PercentViewable(qs, 20*time.Second, gossipstream.JitterThreshold),
			gossipstream.MeanCompleteFraction(qs, gossipstream.OfflineLag),
			dist[0], dist[len(dist)/2], dist[len(dist)-1])
	}
	// Output:
	// homogeneous 700 kbps     viewable@20s 100.0%  mean complete 100.0%  upload max/med/min  425/ 399/ 350 kbps
	// mixed 500/700/1500 kbps  viewable@20s 100.0%  mean complete 100.0%  upload max/med/min  752/ 314/ 284 kbps
}

// A front end of its own: RunFlags declares the run options every tool
// takes, here parsed from a fixed command line, and Apply writes them into
// the config once its size and stream are set. The run crashes a fifth of
// 60 nodes mid-stream on two shards.
func ExampleRunFlags() {
	var rf gossipstream.RunFlags
	fs := flag.NewFlagSet("mytool", flag.ContinueOnError)
	rf.Register(fs)
	if err := fs.Parse([]string{"-seed", "3", "-shards", "2", "-churn", "0.2"}); err != nil {
		fmt.Println(err)
		return
	}

	cfg := gossipstream.DefaultExperiment()
	cfg.Nodes = 60
	cfg.Layout.Windows = 4
	if err := rf.Apply(&cfg); err != nil {
		fmt.Println(err)
		return
	}
	res, _, err := rf.Run(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("seed %d on %d shards: %d of %d peers survive\n",
		cfg.Seed, cfg.Shards, res.SurvivorCount(), res.NodeCount())
	fmt.Printf("mean complete windows offline: %.1f%%\n",
		res.SurvivorMeanCompletePct(gossipstream.OfflineLag))
	// Output:
	// seed 3 on 2 shards: 47 of 59 peers survive
	// mean complete windows offline: 92.0%
}
