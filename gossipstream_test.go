package gossipstream

import (
	"fmt"
	"testing"
	"time"
)

// smallExperiment keeps facade tests fast.
func smallExperiment() ExperimentConfig {
	cfg := DefaultExperiment()
	cfg.Nodes = 36
	cfg.Layout.Windows = 10
	cfg.Drain = 20 * time.Second
	return cfg
}

func TestFacadeDefaultsMatchPaper(t *testing.T) {
	p := DefaultProtocol()
	if p.Fanout != 7 || p.GossipPeriod != 200*time.Millisecond || p.RefreshEvery != 1 {
		t.Fatalf("protocol defaults diverge from the paper: %+v", p)
	}
	l := DefaultLayout(10)
	if l.RateBps != 600_000 || l.DataPerWindow != 101 || l.ParityPerWindow != 9 {
		t.Fatalf("layout defaults diverge from the paper: %+v", l)
	}
	e := DefaultExperiment()
	if e.Nodes != 230 || e.UploadCapBps != 700_000 {
		t.Fatalf("experiment defaults diverge from the paper: %+v", e)
	}
}

func TestFacadeRunExperiment(t *testing.T) {
	res, err := RunExperiment(smallExperiment())
	if err != nil {
		t.Fatal(err)
	}
	qs := res.SurvivorQualities()
	if got := MeanCompleteFraction(qs, OfflineLag); got < 95 {
		t.Fatalf("mean complete = %.1f%%, want ≥95%%", got)
	}
	if got := PercentViewable(qs, OfflineLag, JitterThreshold); got < 80 {
		t.Fatalf("viewable = %.1f%%, want ≥80%% on a healthy small system", got)
	}
	// The accessors answer at exactly the exported probe set, and agree
	// there with the reductions over the rows.
	probes := LagProbes()
	if probes[len(probes)-1] != OfflineLag {
		t.Fatalf("LagProbes ends at %v, want OfflineLag", probes[len(probes)-1])
	}
	for _, lag := range probes {
		if got, want := res.SurvivorMeanCompletePct(lag), MeanCompleteFraction(qs, lag); got != want {
			t.Fatalf("SurvivorMeanCompletePct(%v) = %v, rows say %v", lag, got, want)
		}
	}
}

func TestFacadeChurnHelpers(t *testing.T) {
	events := Catastrophe(30*time.Second, 0.2)
	if len(events) != 1 || events[0].Fraction != 0.2 {
		t.Fatalf("Catastrophe = %+v", events)
	}
	cfg := smallExperiment()
	cfg.Churn = events
	res, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dead := 0
	for _, n := range res.Nodes {
		if !n.Survived {
			dead++
		}
	}
	if dead == 0 {
		t.Fatal("churn schedule killed nobody")
	}
}

func TestFacadeFigureRoundTrip(t *testing.T) {
	base := smallExperiment()
	opts := FigureOptions{Base: &base}
	tb, results, err := Figure1(opts, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 1 || len(results) != 1 {
		t.Fatal("figure 1 facade wiring broken")
	}
	tb2, err := Figure2(opts, []int{5}, results)
	if err != nil {
		t.Fatal(err)
	}
	if tb2.NumRows() == 0 {
		t.Fatal("figure 2 facade wiring broken")
	}
}

func TestFacadeLiveCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	layout := StreamLayout{
		RateBps:         300_000,
		PayloadBytes:    1000,
		DataPerWindow:   6,
		ParityPerWindow: 2,
		Windows:         3,
	}
	// Fanout 4 with 5 nodes = every propose reaches all peers, so complete
	// delivery is deterministic up to (retransmitted) localhost loss.
	protocol := DefaultProtocol()
	protocol.Fanout = 4
	protocol.SourceFanout = 4
	protocol.GossipPeriod = 40 * time.Millisecond
	protocol.RetPeriod = 300 * time.Millisecond
	cluster, err := NewLiveCluster(5, protocol, layout, Unlimited, 11)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	// Generous deadline: when the whole module's tests run in parallel the
	// scheduler can starve this real-time cluster for seconds at a time.
	deadline := time.Now().Add(layout.Duration() + 20*time.Second)
	for time.Now().Before(deadline) {
		done := true
		for _, n := range cluster.Nodes {
			if n.Receiver().Delivered() < layout.TotalPackets() {
				done = false
			}
		}
		if done {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	for i, n := range cluster.Nodes {
		q := EvaluateLive(n, layout)
		if q.CompleteFraction(OfflineLag) < 1 {
			t.Errorf("live node %d incomplete", i)
		}
	}
}

// TestFacadeApplyChurnFlag pins the shared -churn CLI grammar: burst
// fractions, sustained poisson specs (rates scale with the configured
// population), and the rejected spellings.
func TestFacadeApplyChurnFlag(t *testing.T) {
	cfg := DefaultExperiment()
	cfg.Nodes = 500
	if err := ApplyChurnFlag(&cfg, "0"); err != nil || cfg.Churn != nil || cfg.ChurnProcess != nil {
		t.Fatalf("no-churn spec mutated config (err %v)", err)
	}
	if err := ApplyChurnFlag(&cfg, "0.3"); err != nil || len(cfg.Churn) != 1 {
		t.Fatalf("burst spec: err %v, churn %+v", err, cfg.Churn)
	}
	if cfg.Churn[0].At != cfg.Layout.Duration()/2 || cfg.Churn[0].Fraction != 0.3 {
		t.Fatalf("burst = %+v, want mid-stream at fraction 0.3", cfg.Churn[0])
	}
	if err := ApplyChurnFlag(&cfg, "poisson:0.01,0.02"); err != nil {
		t.Fatal(err)
	}
	if cfg.ChurnProcess == nil || cfg.ChurnProcess.JoinPerSec != 5 || cfg.ChurnProcess.LeavePerSec != 10 {
		t.Fatalf("poisson spec = %+v, want rates 5/s and 10/s for 500 nodes", cfg.ChurnProcess)
	}
	for _, bad := range []string{"often", "NaN", "-0.1", "1.5", "poisson:", "poisson:1", "poisson:a,b", "poisson:0.1,-2", "poisson:2,0.5", "poisson:0.1,0.2,0.3"} {
		if err := ApplyChurnFlag(&cfg, bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	if p := SustainedChurn(3, 4); p.JoinPerSec != 3 || p.LeavePerSec != 4 || p.IsZero() {
		t.Fatalf("SustainedChurn = %+v", p)
	}
}

// TestFacadeSustainedChurnExperiment runs a small sustained-churn
// deployment through the public API end to end.
func TestFacadeSustainedChurnExperiment(t *testing.T) {
	cfg := smallExperiment()
	cfg.Nodes = 100
	cfg.Shards = 2
	cfg.Membership = MembershipCyclon
	cfg.ChurnProcess = SustainedChurn(2, 2)
	res, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) <= cfg.Nodes-1 {
		t.Fatalf("no joins recorded: %d nodes", len(res.Nodes))
	}
	lq := res.LifetimeQualities(res.Config.BootstrapGrace())
	if len(lq) == 0 {
		t.Fatal("no present-node qualities")
	}
	if got := MeanCompleteFraction(lq, OfflineLag); got <= 0 {
		t.Fatalf("present-node completeness = %.1f%%, want > 0", got)
	}
}

// ExampleScaledExperiment documents the scale-run entry point.
func ExampleScaledExperiment() {
	cfg := ScaledExperiment(100_000, 8, 30*time.Second)
	fmt.Println(cfg.Nodes, cfg.Shards, cfg.Layout.Duration()+cfg.Drain == 30*time.Second)
	// Output: 100000 8 true
}
