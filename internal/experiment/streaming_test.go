package experiment

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"gossipstream/internal/churn"
	"gossipstream/internal/metrics"
	"gossipstream/internal/telemetry"
)

// Scorer coverage. Every run scores through one fold (streamFold); a run
// that retains its per-node rows therefore carries its own oracle: the
// internal/metrics reductions over Result.Nodes. The twin tests run the
// same (seed, shards) deployment with and without rows, hold the fold to
// that oracle with exact float equality at every probe, and then require
// the row-less run's fold to be the same value.

// twinCfg is a sharded deployment sized for the twin property test.
func twinCfg(seed int64, nodes int) Config {
	cfg := Defaults()
	cfg.Seed = seed
	cfg.Nodes = nodes
	cfg.Shards = 4
	cfg.Layout.Windows = 4 // ≈7 s of stream
	cfg.Drain = 8 * time.Second
	return cfg
}

// runTwin executes cfg once retaining per-node rows and once without,
// asserting the runs executed identical event sequences before anyone
// compares scores.
func runTwin(t *testing.T, cfg Config) (batch, streaming *Result) {
	t.Helper()
	cfg.StreamingMetrics = false
	batch, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.StreamingMetrics = true
	streaming, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Events != streaming.Events {
		t.Fatalf("dropping the rows changed the run itself: %d vs %d events", batch.Events, streaming.Events)
	}
	if batch.TotalTraffic != streaming.TotalTraffic {
		t.Fatalf("dropping the rows changed traffic totals:\n%+v\n%+v", batch.TotalTraffic, streaming.TotalTraffic)
	}
	if len(streaming.Nodes) != 0 {
		t.Fatalf("StreamingMetrics run retained %d NodeResults, want 0", len(streaming.Nodes))
	}
	if !reflect.DeepEqual(batch.ViewInDegree, streaming.ViewInDegree) {
		t.Fatalf("view in-degree differs between twins:\n%+v\n%+v",
			batch.ViewInDegree.Summary(), streaming.ViewInDegree.Summary())
	}
	return batch, streaming
}

// classRows returns a Result holding only the rows of one service class,
// so LifetimeQualities over it is the per-class reference.
func classRows(res *Result, rider bool) *Result {
	out := &Result{Config: res.Config}
	for _, n := range res.Nodes {
		if n.FreeRider == rider {
			out.Nodes = append(out.Nodes, n)
		}
	}
	return out
}

// assertFoldMatchesRows holds every accessor of a run that retained its
// rows to the internal/metrics reduction over those rows: exact float
// equality at all 13 probes, counts against loops over Nodes, the upload
// digest against a histogram of the rows' rounded rates.
func assertFoldMatchesRows(t *testing.T, res *Result) {
	t.Helper()
	const thr = metrics.DefaultJitterThreshold
	grace := res.Config.BootstrapGrace()
	survivors := res.SurvivorQualities()
	present := res.LifetimeQualities(grace)
	scored := survivors
	if res.hasChurnProcess() {
		scored = present
	}
	riders := classRows(res, true).LifetimeQualities(grace)
	cooperators := classRows(res, false).LifetimeQualities(grace)
	for _, probe := range telemetry.LagProbes {
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"ScoredViewablePct", res.ScoredViewablePct(probe, thr), metrics.PercentViewable(scored, probe, thr)},
			{"ScoredMeanCompletePct", res.ScoredMeanCompletePct(probe), metrics.MeanCompleteFraction(scored, probe)},
			{"ScoredLagCDFAt", res.ScoredLagCDFAt(probe, thr), metrics.LagCDF(scored, []time.Duration{probe}, thr)[0]},
			{"SurvivorViewablePct", res.SurvivorViewablePct(probe, thr), metrics.PercentViewable(survivors, probe, thr)},
			{"SurvivorMeanCompletePct", res.SurvivorMeanCompletePct(probe), metrics.MeanCompleteFraction(survivors, probe)},
			{"PresentMeanCompletePct", res.PresentMeanCompletePct(probe), metrics.MeanCompleteFraction(present, probe)},
			{"ClassMeanCompletePct(riders)", res.ClassMeanCompletePct(true, probe), metrics.MeanCompleteFraction(riders, probe)},
			{"ClassMeanCompletePct(cooperators)", res.ClassMeanCompletePct(false, probe), metrics.MeanCompleteFraction(cooperators, probe)},
		} {
			if c.got != c.want {
				t.Errorf("%s(%v): fold %.17g, rows %.17g", c.name, probe, c.got, c.want)
			}
		}
	}
	var survived, joined, departed int
	var upload telemetry.Hist
	for _, n := range res.Nodes {
		if n.Survived {
			survived++
		} else {
			departed++
		}
		if n.JoinedAt > 0 {
			joined++
		}
		upload.Observe(int64(math.Round(n.UploadKbps)))
	}
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"NodeCount", res.NodeCount(), len(res.Nodes)},
		{"SurvivorCount", res.SurvivorCount(), survived},
		{"JoinedCount", res.JoinedCount(), joined},
		{"DepartedCount", res.DepartedCount(), departed},
		{"PresentCount", res.PresentCount(), len(present)},
		{"ClassCount(riders)", res.ClassCount(true), len(riders)},
		{"ClassCount(cooperators)", res.ClassCount(false), len(cooperators)},
	} {
		if c.got != c.want {
			t.Errorf("%s: fold %d, rows %d", c.name, c.got, c.want)
		}
	}
	if got, want := res.UploadSummary(), upload.Summary(); got != want {
		t.Errorf("UploadSummary: fold %+v, rows %+v", got, want)
	}
}

// assertTwinScores: the batch twin's fold equals the reductions over its
// rows, and the row-less twin's fold is the same value — so every score it
// reports is held to the same oracle.
func assertTwinScores(t *testing.T, batch, streaming *Result) {
	t.Helper()
	assertFoldMatchesRows(t, batch)
	if !reflect.DeepEqual(batch.Streaming, streaming.Streaming) {
		t.Errorf("the fold differs between the twins:\n%+v\n%+v", batch.Streaming, streaming.Streaming)
	}
}

// TestStreamingTwinSustainedChurn is the acceptance twin: a 2k-node
// Cyclon deployment under Poisson join/leave churn, where joiners and
// leavers exercise both ends of the lifetime mask. Departing nodes are
// folded and fully released at their crash barriers, so agreement with
// the rows (whose qualities are captured at the same barriers) also proves
// the early release loses no scoring information.
func TestStreamingTwinSustainedChurn(t *testing.T) {
	nodes := 2000
	if testing.Short() {
		nodes = 300
	}
	cfg := twinCfg(11, nodes)
	cfg.Membership = MembershipCyclon
	cfg.PSS.ViewSize = 20
	cfg.PSS.ShuffleLen = 8
	cfg.PSS.Period = 500 * time.Millisecond
	proc := churn.SustainedPoisson(2, 2)
	cfg.ChurnProcess = &proc
	batch, streaming := runTwin(t, cfg)
	if streaming.Streaming.Departed == 0 || streaming.Streaming.Joined == 0 {
		t.Fatalf("churn twin saw no churn: %+v", streaming.Streaming)
	}
	if streaming.ViewInDegree.Count() == 0 {
		t.Fatal("Cyclon run measured no view in-degree")
	}
	assertTwinScores(t, batch, streaming)
}

// TestStreamingTwinBurst: catastrophic burst churn (no process) scores
// the survivor population; the fold must match the rows there too.
func TestStreamingTwinBurst(t *testing.T) {
	cfg := twinCfg(13, 400)
	cfg.Churn = churn.Catastrophic(cfg.Layout.Duration()/2, 0.2)
	batch, streaming := runTwin(t, cfg)
	if streaming.Streaming.Departed == 0 {
		t.Fatal("burst twin crashed nobody")
	}
	assertTwinScores(t, batch, streaming)
}

// TestStreamingReplayDeterministic: a row-less run replays bit-identically
// (the fold adds no nondeterminism).
func TestStreamingReplayDeterministic(t *testing.T) {
	cfg := twinCfg(17, 300)
	cfg.Churn = churn.Catastrophic(cfg.Layout.Duration()/2, 0.3)
	cfg.StreamingMetrics = true
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Streaming, b.Streaming) {
		t.Fatal("streaming fold replayed differently for identical (seed, shards)")
	}
}

// TestStreamingMetricsValidation: StreamingMetrics asks nothing of the
// shard count, and decides only whether rows are retained: at Shards = 0
// both modes validate, run, and carry the fold.
func TestStreamingMetricsValidation(t *testing.T) {
	for _, streaming := range []bool{false, true} {
		cfg := smallCfg(1)
		cfg.StreamingMetrics = streaming
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("StreamingMetrics = %v at Shards = 0 failed: %v", streaming, err)
		}
		wantRows := cfg.Nodes - 1
		if streaming {
			wantRows = 0
		}
		if res.Streaming == nil || len(res.Nodes) != wantRows || res.SurvivorCount() != cfg.Nodes-1 {
			t.Fatalf("StreamingMetrics = %v: fold present %v, %d retained rows (want %d), %d survivors",
				streaming, res.Streaming != nil, len(res.Nodes), wantRows, res.SurvivorCount())
		}
	}
}

// TestProbeContract: every lag-taking accessor answers at each of
// telemetry.LagProbes and at no other lag, with or without retained rows;
// off the probe set it panics naming the lag and the route through the
// per-node rows.
func TestProbeContract(t *testing.T) {
	const thr = metrics.DefaultJitterThreshold
	accessors := map[string]func(*Result, time.Duration) float64{
		"ScoredViewablePct":       func(r *Result, lag time.Duration) float64 { return r.ScoredViewablePct(lag, thr) },
		"ScoredMeanCompletePct":   (*Result).ScoredMeanCompletePct,
		"ScoredLagCDFAt":          func(r *Result, lag time.Duration) float64 { return r.ScoredLagCDFAt(lag, thr) },
		"SurvivorViewablePct":     func(r *Result, lag time.Duration) float64 { return r.SurvivorViewablePct(lag, thr) },
		"SurvivorMeanCompletePct": (*Result).SurvivorMeanCompletePct,
		"PresentMeanCompletePct":  (*Result).PresentMeanCompletePct,
		"ClassMeanCompletePct":    func(r *Result, lag time.Duration) float64 { return r.ClassMeanCompletePct(false, lag) },
	}
	for _, streaming := range []bool{false, true} {
		cfg := smallCfg(1)
		cfg.StreamingMetrics = streaming
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for name, score := range accessors {
			for _, probe := range telemetry.LagProbes {
				if got := score(res, probe); got < 0 || got > 100 {
					t.Errorf("streaming=%v %s(%v) = %v, want a percentage", streaming, name, probe, got)
				}
			}
			msg := func() (msg string) {
				defer func() { msg, _ = recover().(string) }()
				score(res, 7*time.Second)
				return ""
			}()
			for _, want := range []string{"lag 7s", "LagProbes", "SurvivorQualities", "LifetimeQualities", "metrics"} {
				if !strings.Contains(msg, want) {
					t.Errorf("streaming=%v %s(7s): panic %q does not mention %q", streaming, name, msg, want)
				}
			}
		}
	}
}
