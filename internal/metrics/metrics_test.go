package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"gossipstream/internal/stream"
)

func sec(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }

func TestEvaluateFromReceiver(t *testing.T) {
	layout := stream.Layout{
		RateBps: 80_000, PayloadBytes: 100,
		DataPerWindow: 2, ParityPerWindow: 1, Windows: 3,
	}
	r := stream.NewReceiver(layout)
	// Window 0 completes at 100ms (publish time 20ms → lag 80ms).
	r.Deliver(layout.IDFor(0, 0), 50*time.Millisecond)
	r.Deliver(layout.IDFor(0, 1), 100*time.Millisecond)
	// Window 1 never completes (1 of 2 needed).
	r.Deliver(layout.IDFor(1, 0), 100*time.Millisecond)
	// Window 2 completes via parity.
	r.Deliver(layout.IDFor(2, 0), 200*time.Millisecond)
	r.Deliver(layout.IDFor(2, 2), 300*time.Millisecond)

	q := Evaluate(r, layout)
	if q.Windows() != 3 {
		t.Fatalf("Windows() = %d, want 3", q.Windows())
	}
	lag0, ok := q.WindowLag(0)
	if !ok || lag0 != 80*time.Millisecond {
		t.Fatalf("window 0 lag = %v ok=%v, want 80ms", lag0, ok)
	}
	if _, ok := q.WindowLag(1); ok {
		t.Fatal("window 1 reported complete")
	}
	if got := q.CompleteFraction(InfiniteLag); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("offline complete fraction = %v, want 2/3", got)
	}
	if got := q.CompleteFraction(100 * time.Millisecond); math.Abs(got-1.0/3) > 1e-9 {
		t.Fatalf("100ms complete fraction = %v, want 1/3", got)
	}
}

func TestJitterAndViewable(t *testing.T) {
	// 100 windows: 99 complete instantly, 1 never.
	lags := make([]time.Duration, 100)
	lags[17] = NeverCompleted
	q := QualityFromLags(lags)
	if j := q.JitterAt(InfiniteLag); math.Abs(j-0.01) > 1e-9 {
		t.Fatalf("jitter = %v, want 0.01", j)
	}
	if !q.ViewableAt(InfiniteLag, DefaultJitterThreshold) {
		t.Fatal("node with exactly 1% jitter must be viewable at the 1% bar")
	}
	lags[18] = NeverCompleted
	q2 := QualityFromLags(lags)
	if q2.ViewableAt(InfiniteLag, DefaultJitterThreshold) {
		t.Fatal("node with 2% jitter viewable at 1% bar")
	}
}

func TestCriticalLag(t *testing.T) {
	// 10 windows with lags 1..10s: at 1% jitter all 10 must complete, so
	// the critical lag is the max.
	lags := make([]time.Duration, 10)
	for i := range lags {
		lags[i] = sec(float64(i + 1))
	}
	q := QualityFromLags(lags)
	cl, ok := q.CriticalLag(DefaultJitterThreshold)
	if !ok || cl != sec(10) {
		t.Fatalf("critical lag = %v ok=%v, want 10s", cl, ok)
	}
	// At 10% jitter one window may be missing: critical lag = 9s.
	cl, ok = q.CriticalLag(0.10)
	if !ok || cl != sec(9) {
		t.Fatalf("critical lag at 10%% = %v ok=%v, want 9s", cl, ok)
	}
}

func TestCriticalLagNever(t *testing.T) {
	lags := []time.Duration{sec(1), NeverCompleted, NeverCompleted, sec(2)}
	q := QualityFromLags(lags)
	if _, ok := q.CriticalLag(DefaultJitterThreshold); ok {
		t.Fatal("critical lag exists although 50% of windows never completed")
	}
	if _, ok := q.CriticalLag(0.5); !ok {
		t.Fatal("critical lag missing at 50% jitter bar")
	}
}

func TestPercentViewable(t *testing.T) {
	good := QualityFromLags([]time.Duration{sec(1), sec(1)})
	bad := QualityFromLags([]time.Duration{sec(1), NeverCompleted})
	got := PercentViewable([]Quality{good, good, good, bad}, sec(5), DefaultJitterThreshold)
	if got != 75 {
		t.Fatalf("PercentViewable = %v, want 75", got)
	}
	if PercentViewable(nil, sec(5), 0.01) != 0 {
		t.Fatal("empty slice should yield 0")
	}
}

func TestMeanCompleteFraction(t *testing.T) {
	a := QualityFromLags([]time.Duration{sec(1), sec(1), NeverCompleted, NeverCompleted}) // 50%
	b := QualityFromLags([]time.Duration{sec(1), sec(1), sec(1), sec(1)})                 // 100%
	got := MeanCompleteFraction([]Quality{a, b}, InfiniteLag)
	if math.Abs(got-75) > 1e-9 {
		t.Fatalf("MeanCompleteFraction = %v, want 75", got)
	}
}

func TestLagCDF(t *testing.T) {
	qs := []Quality{
		QualityFromLags([]time.Duration{sec(1)}),  // critical lag 1s
		QualityFromLags([]time.Duration{sec(5)}),  // 5s
		QualityFromLags([]time.Duration{sec(20)}), // 20s
		QualityFromLags([]time.Duration{NeverCompleted}),
	}
	got := LagCDF(qs, []time.Duration{sec(2), sec(10), sec(30)}, DefaultJitterThreshold)
	want := []float64{25, 50, 75}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("LagCDF[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// CDF must be nondecreasing by construction.
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatal("CDF decreased")
		}
	}
}

// Property: CompleteFraction is nondecreasing in lag and CriticalLag is
// consistent with ViewableAt.
func TestQualityMonotoneProperty(t *testing.T) {
	f := func(raw []int16, bar uint8) bool {
		lags := make([]time.Duration, len(raw))
		for i, v := range raw {
			if v < 0 {
				lags[i] = NeverCompleted
			} else {
				lags[i] = time.Duration(v) * time.Millisecond
			}
		}
		q := QualityFromLags(lags)
		prev := -1.0
		for _, probe := range []time.Duration{0, sec(0.01), sec(0.1), sec(1), sec(10), InfiniteLag} {
			cf := q.CompleteFraction(probe)
			if cf < prev-1e-12 {
				return false
			}
			prev = cf
		}
		maxJitter := float64(bar%50) / 100
		if cl, ok := q.CriticalLag(maxJitter); ok {
			if !q.ViewableAt(cl, maxJitter) {
				return false
			}
			if cl > 0 && len(lags) > 0 && q.ViewableAt(cl-time.Millisecond, maxJitter) && cl >= time.Millisecond {
				// cl must be minimal at millisecond granularity for integer
				// millisecond lag data.
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Figure X", "fanout", "quality")
	tb.AddRow("7", "97.5")
	tb.AddRow("50", "12.0")
	out := tb.String()
	if !strings.Contains(out, "Figure X") || !strings.Contains(out, "fanout") {
		t.Fatalf("table missing header: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("table has %d lines, want 5:\n%s", len(lines), out)
	}
	if tb.NumRows() != 2 || tb.Row(1)[0] != "50" {
		t.Fatal("row accessors wrong")
	}
}

func TestTableRowMismatchPanics(t *testing.T) {
	tb := NewTable("t", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched row did not panic")
		}
	}()
	tb.AddRow("only one")
}

func TestChartRendersAllSeries(t *testing.T) {
	out := Chart("test chart", 40, 10, []Series{
		{Name: "up", X: []float64{0, 1, 2}, Y: []float64{0, 1, 2}},
		{Name: "down", X: []float64{0, 1, 2}, Y: []float64{2, 1, 0}},
	})
	if !strings.Contains(out, "test chart") || !strings.Contains(out, "up") || !strings.Contains(out, "down") {
		t.Fatalf("chart missing labels:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatalf("chart missing series marks:\n%s", out)
	}
}

func TestChartSkipsNonFinitePoints(t *testing.T) {
	// Regression: an X axis containing +Inf (the paper's X = ∞ column)
	// must not panic or distort the projection.
	out := Chart("inf axis", 40, 10, []Series{
		{Name: "line", X: []float64{1, 10, math.Inf(1)}, Y: []float64{90, 50, 30}},
		{Name: "nan", X: []float64{1, math.NaN()}, Y: []float64{math.NaN(), 10}},
	})
	if !strings.Contains(out, "*") {
		t.Fatalf("finite points not plotted:\n%s", out)
	}
	allInf := Chart("only inf", 40, 10, []Series{
		{Name: "x", X: []float64{math.Inf(1)}, Y: []float64{1}},
	})
	if !strings.Contains(allInf, "no data") {
		t.Fatalf("all-infinite series should render as no data:\n%s", allInf)
	}
}

func TestChartEmpty(t *testing.T) {
	out := Chart("empty", 40, 10, nil)
	if !strings.Contains(out, "no data") {
		t.Fatalf("empty chart = %q", out)
	}
}
