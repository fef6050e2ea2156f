// Command figures regenerates every table and figure of the paper's
// evaluation section and writes them to text files (plus stdout).
//
//	figures                         # full paper scale (230 nodes, ≈212 s streams)
//	figures -scale 0.2              # quick pass at reduced scale
//	figures -only 1,2               # selected figures
//	figures -only 1 -nodes 10000 -shards 8   # fanout sweep at 10k nodes, 8 shards per run
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"gossipstream"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(out)
	var rf gossipstream.RunFlags
	rf.Register(fs, 0)
	fs.Lookup("streaming").Usage += ". Figure 4 and the churn claim read the rows and ignore it"
	var (
		scale   = fs.Float64("scale", 1.0, "scale factor for nodes and stream length (0,1]")
		nodes   = fs.Int("nodes", 0, "override system size (0 = paper scale; the sweeps' scale axis)")
		outDir  = fs.String("out", "figures", "directory for figure text files")
		only    = fs.String("only", "", "comma-separated figure selection, e.g. 1,2,7,claim (default all)")
		teleOut = fs.String("telemetry", "", "write a JSON campaign manifest (config plus every generated table) to this path (- = stdout)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	switch {
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *nodes < 0:
		return fmt.Errorf("-nodes %d: want >= 0", *nodes)
	case !(*scale > 0 && *scale <= 1): // also NaN
		return fmt.Errorf("-scale %v: want a factor in (0, 1]", *scale)
	}
	selected := map[string]bool{}
	if *only != "" {
		for _, s := range strings.Split(*only, ",") {
			id := strings.TrimSpace(s)
			if id != "" && id != "claim" && (len(id) != 1 || id < "1" || id > "8") {
				return fmt.Errorf("-only %q: unknown figure %q, want 1 to 8 or claim", *only, id)
			}
			selected[id] = true
		}
	}
	want := func(id string) bool { return len(selected) == 0 || selected[id] }

	// -nodes and -shards re-run the sweeps beyond the paper's 230-node
	// testbed (ROADMAP: the Figure 1/3 scale axis); -membership and -churn
	// put every sweep over partial views and/or under churn —
	// "-membership cyclon -churn poisson:0.01,0.01" runs the Figure-style
	// sweeps under sustained join/leave with runtime bootstrap.
	base := gossipstream.DefaultExperiment()
	if *nodes > 0 {
		base.Nodes = *nodes
	}
	// Apply the run flags to the *scaled* configuration the sweeps will
	// actually run: Poisson rates are fractions of the real population and
	// the burst instant must land mid-way through the scaled stream, not
	// the unscaled one.
	scaled := gossipstream.FigureOptions{Base: &base, Scale: *scale}.BaseConfig()
	if err := rf.Apply(&scaled); err != nil {
		return err
	}
	opts := gossipstream.FigureOptions{Base: &scaled}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	// Each selected step prints what it runs, then writes its text to its
	// file and stdout: a table gets an ASCII chart of its numeric columns
	// against the first column when that axis parses as numbers, and joins
	// the -telemetry campaign manifest. Figures 1 and 7 also run, their
	// tables unwritten, when only Figure 2 or 8 is selected and needs their
	// results.
	var fig1, fig7 []*gossipstream.ExperimentResult
	steps := []struct {
		id, feeds, what string
		gen             func() (fmt.Stringer, error)
	}{
		{"1", "2", "figure 1 (fanout sweep, 700 kbps)", func() (fmt.Stringer, error) {
			tb, res, err := gossipstream.Figure1(opts, nil)
			fig1 = res
			return tb, err
		}},
		{"2", "", "figure 2 (lag CDF)", func() (fmt.Stringer, error) { return gossipstream.Figure2(opts, nil, fig1) }},
		{"3", "", "figure 3 (1000/2000 kbps caps)", func() (fmt.Stringer, error) { return gossipstream.Figure3(opts, nil, nil) }},
		{"4", "", "figure 4 (bandwidth distribution)", func() (fmt.Stringer, error) { return gossipstream.Figure4(opts, nil) }},
		{"5", "", "figure 5 (refresh rate X)", func() (fmt.Stringer, error) { return gossipstream.Figure5(opts, nil) }},
		{"6", "", "figure 6 (feed-me rate Y)", func() (fmt.Stringer, error) { return gossipstream.Figure6(opts, nil) }},
		{"7", "8", "figure 7 (churn vs X)", func() (fmt.Stringer, error) {
			tb, res, err := gossipstream.Figure7(opts, nil, nil)
			fig7 = res
			return tb, err
		}},
		{"8", "", "figure 8 (complete windows under churn)", func() (fmt.Stringer, error) { return gossipstream.Figure8(opts, nil, nil, fig7) }},
		{"claim", "", "§1 churn claim (20% churn, X=1)", func() (fmt.Stringer, error) {
			claim, err := gossipstream.ChurnClaim(opts)
			return plainText(fmt.Sprintf(
				"Churn claim (20%% simultaneous failures, X=1):\n"+
					"  survivors with <1%% jitter at 20s lag: %.1f%%  (paper: 70%%)\n"+
					"  mean outage span among affected:       %.1fs  (paper: ≈5s)\n"+
					"  missing windows within ±10s of churn:  %.1f%%\n",
				claim.UnaffectedPct, claim.MeanOutage.Seconds(), claim.OutageNearChurnPct)), err
		}},
	}
	start := time.Now()
	var exported []tableExport
	for _, st := range steps {
		if !want(st.id) && (st.feeds == "" || !want(st.feeds)) {
			continue
		}
		fmt.Fprintf(out, "running %s...\n", st.what)
		res, err := st.gen()
		if err != nil {
			return err
		}
		if !want(st.id) {
			continue
		}
		text, name := res.String(), "churn_claim"
		if tb, ok := res.(*gossipstream.Table); ok {
			name = "figure" + st.id
			if chart := chartOf(tb); chart != "" {
				text += "\n" + chart
			}
			exported = append(exported, tableExport{Name: name, Title: tb.Title, Columns: tb.Columns, Rows: tb.Rows()})
		}
		fmt.Fprintln(out, text)
		if err := os.WriteFile(filepath.Join(*outDir, name+".txt"), []byte(text), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "done in %v; tables written to %s/\n", time.Since(start).Round(time.Second), *outDir)

	if *teleOut == "" {
		return nil
	}
	return gossipstream.WriteManifest(*teleOut, campaignManifest{
		Tool:        "figures",
		Config:      scaled,
		Scale:       *scale,
		WallSeconds: time.Since(start).Seconds(),
		Tables:      exported,
	}, out)
}

// plainText is a step's output that is not a table: the churn claim.
type plainText string

func (t plainText) String() string { return string(t) }

// campaignManifest is the -telemetry export of a figures run: the exact
// scaled base configuration every sweep started from, plus each
// generated table in structured form.
type campaignManifest struct {
	Tool        string                        `json:"tool"`
	Config      gossipstream.ExperimentConfig `json:"config"`
	Scale       float64                       `json:"scale"`
	WallSeconds float64                       `json:"wall_seconds"`
	Tables      []tableExport                 `json:"tables"`
}

// tableExport is one figure's table, machine-readable.
type tableExport struct {
	Name    string     `json:"name"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// chartOf renders the table as an ASCII chart when its first column is a
// numeric axis; otherwise it returns "".
func chartOf(tb *gossipstream.Table) string {
	if tb.NumRows() < 2 {
		return ""
	}
	xs := make([]float64, 0, tb.NumRows())
	for i := 0; i < tb.NumRows(); i++ {
		v, err := strconv.ParseFloat(strings.TrimSuffix(tb.Row(i)[0], "s"), 64)
		if err != nil {
			return ""
		}
		xs = append(xs, v)
	}
	var series []gossipstream.ChartSeries
	for c := 1; c < len(tb.Columns); c++ {
		ys := make([]float64, 0, tb.NumRows())
		for i := 0; i < tb.NumRows(); i++ {
			v, err := strconv.ParseFloat(tb.Row(i)[c], 64)
			if err != nil {
				return ""
			}
			ys = append(ys, v)
		}
		series = append(series, gossipstream.ChartSeries{Name: tb.Columns[c], X: xs, Y: ys})
	}
	return gossipstream.RenderChart(tb.Title, 72, 18, series)
}
