// Package metrics computes the paper's two evaluation metrics — stream lag
// and stream quality (§4, "Evaluation metrics") — plus the distribution and
// presentation helpers used by the figure harness.
//
// A window is jittered if it holds fewer than DataPerWindow distinct
// packets at its deadline; a node views the stream "with less than 1%
// jitter at lag L" when at least 99% of windows completed within L of their
// publish time. Offline viewing corresponds to an infinite lag.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"

	"gossipstream/internal/stream"
	"gossipstream/internal/telemetry"
)

// The lag vocabulary, defined once in internal/telemetry (the leaf package
// the scoring fold lives in).
const (
	// DefaultJitterThreshold is the paper's quality bar: at most 1% of
	// windows may be incomplete.
	DefaultJitterThreshold = telemetry.DefaultJitterThreshold
	// InfiniteLag marks offline viewing (no deadline).
	InfiniteLag = telemetry.InfiniteLag
	// NeverCompleted marks a window that never became viewable.
	NeverCompleted = telemetry.NeverCompleted
)

// Quality holds the per-window lags of one node.
type Quality struct {
	lags []time.Duration
}

// Evaluate derives a node's Quality from its receiver state.
func Evaluate(recv *stream.Receiver, layout stream.Layout) Quality {
	return EvaluateInto(make([]time.Duration, layout.Windows), recv, layout)
}

// EvaluateInto is Evaluate keeping the lags in dst, of at least
// layout.Windows elements, which the Quality holds from then on: a caller
// scoring many nodes carves their rows from one backing.
func EvaluateInto(dst []time.Duration, recv *stream.Receiver, layout stream.Layout) Quality {
	lags := dst[:layout.Windows:layout.Windows]
	for w := 0; w < layout.Windows; w++ {
		if lag, ok := recv.Lag(w); ok {
			lags[w] = lag
		} else {
			lags[w] = NeverCompleted
		}
	}
	return Quality{lags: lags}
}

// QualityFromLags builds a Quality directly (tests, aggregation).
func QualityFromLags(lags []time.Duration) Quality {
	out := make([]time.Duration, len(lags))
	copy(out, lags)
	return Quality{lags: out}
}

// Windows returns the number of windows evaluated.
func (q Quality) Windows() int { return len(q.lags) }

// WindowLag returns the lag of window w and whether it ever completed.
func (q Quality) WindowLag(w int) (time.Duration, bool) {
	if q.lags[w] == NeverCompleted {
		return 0, false
	}
	return q.lags[w], true
}

// CompleteFraction returns the fraction of windows viewable at the given
// lag (InfiniteLag = offline viewing).
func (q Quality) CompleteFraction(lag time.Duration) float64 {
	if len(q.lags) == 0 {
		return 0
	}
	n := 0
	for _, l := range q.lags {
		if l != NeverCompleted && l <= lag {
			n++
		}
	}
	return float64(n) / float64(len(q.lags))
}

// JitterAt returns the jitter (fraction of incomplete windows) at a lag.
func (q Quality) JitterAt(lag time.Duration) float64 {
	return 1 - q.CompleteFraction(lag)
}

// ViewableAt reports whether the node views the stream within the jitter
// threshold at the given lag.
func (q Quality) ViewableAt(lag time.Duration, maxJitter float64) bool {
	return q.JitterAt(lag) <= maxJitter+1e-12
}

// CriticalLag returns the smallest lag at which the node is viewable under
// maxJitter, and false if no finite lag achieves it.
func (q Quality) CriticalLag(maxJitter float64) (time.Duration, bool) {
	if len(q.lags) == 0 {
		return 0, false
	}
	finite := make([]time.Duration, 0, len(q.lags))
	for _, l := range q.lags {
		if l != NeverCompleted {
			finite = append(finite, l)
		}
	}
	// Need at least ceil((1-maxJitter)*windows) completed windows.
	need := int(math.Ceil((1 - maxJitter) * float64(len(q.lags)) * (1 - 1e-12)))
	if need <= 0 {
		return 0, true
	}
	if len(finite) < need {
		return 0, false
	}
	sort.Slice(finite, func(i, j int) bool { return finite[i] < finite[j] })
	return finite[need-1], true
}

// PercentViewable returns the percentage of the given qualities viewable at
// lag under maxJitter — the y-axis of Figures 1, 3, 5, 6 and 7.
func PercentViewable(qs []Quality, lag time.Duration, maxJitter float64) float64 {
	if len(qs) == 0 {
		return 0
	}
	n := 0
	for _, q := range qs {
		if q.ViewableAt(lag, maxJitter) {
			n++
		}
	}
	return 100 * float64(n) / float64(len(qs))
}

// MeanCompleteFraction returns the average percentage of complete windows
// across nodes at the given lag — the y-axis of Figure 8.
func MeanCompleteFraction(qs []Quality, lag time.Duration) float64 {
	if len(qs) == 0 {
		return 0
	}
	sum := 0.0
	for _, q := range qs {
		sum += q.CompleteFraction(lag)
	}
	return 100 * sum / float64(len(qs))
}

// LagCDF returns, for each probe lag, the percentage of nodes whose
// critical lag (under maxJitter) is at most that probe — Figure 2's curves.
func LagCDF(qs []Quality, probes []time.Duration, maxJitter float64) []float64 {
	out := make([]float64, len(probes))
	for i, probe := range probes {
		n := 0
		for _, q := range qs {
			if cl, ok := q.CriticalLag(maxJitter); ok && cl <= probe {
				n++
			}
		}
		if len(qs) > 0 {
			out[i] = 100 * float64(n) / float64(len(qs))
		}
	}
	return out
}

// Table is a printable result table; one per reproduced figure.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; it must match the column count.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("metrics: row has %d cells, table has %d columns", len(cells), len(t.Columns)))
	}
	t.rows = append(t.rows, cells)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Row returns row i.
func (t *Table) Row(i int) []string { return t.rows[i] }

// Rows returns every data row in order — the export surface for
// structured emitters (the telemetry run manifest serializes tables
// through it).
func (t *Table) Rows() [][]string { return t.rows }

// String renders the table as aligned monospace text.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b []byte
	b = append(b, t.Title...)
	b = append(b, '\n')
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b = append(b, ' ', ' ')
			}
			b = append(b, fmt.Sprintf("%-*s", widths[i], cell)...)
		}
		b = append(b, '\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		dash := make([]byte, widths[i])
		for j := range dash {
			dash[j] = '-'
		}
		sep[i] = string(dash)
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	return string(b)
}

// Series is one labelled line of an ASCII chart.
type Series struct {
	Name string
	X, Y []float64
}

// Chart renders series as a monospace scatter plot, one rune per series.
// It is intentionally crude — enough to eyeball the shape of a figure in a
// terminal or in the text files cmd/figures writes.
func Chart(title string, width, height int, series []Series) string {
	if width < 16 {
		width = 16
	}
	if height < 6 {
		height = 6
	}
	marks := []byte("*o+x#@%&")
	// Non-finite points (±Inf axis values such as the paper's X = ∞, NaN
	// gaps) are skipped: they carry no plottable position and would blow
	// up the projection below.
	finite := func(x, y float64) bool {
		return !math.IsInf(x, 0) && !math.IsNaN(x) && !math.IsInf(y, 0) && !math.IsNaN(y)
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			if !finite(s.X[i], s.Y[i]) {
				continue
			}
			minX, maxX = math.Min(minX, s.X[i]), math.Max(maxX, s.X[i])
			minY, maxY = math.Min(minY, s.Y[i]), math.Max(maxY, s.Y[i])
		}
	}
	if math.IsInf(minX, 1) {
		return title + "\n(no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = make([]byte, width)
		for c := range grid[r] {
			grid[r][c] = ' '
		}
	}
	for si, s := range series {
		mark := marks[si%len(marks)]
		for i := range s.X {
			if !finite(s.X[i], s.Y[i]) {
				continue
			}
			c := int((s.X[i] - minX) / (maxX - minX) * float64(width-1))
			r := height - 1 - int((s.Y[i]-minY)/(maxY-minY)*float64(height-1))
			grid[r][c] = mark
		}
	}
	out := title + "\n"
	for r, row := range grid {
		label := "        "
		if r == 0 {
			label = fmt.Sprintf("%7.1f ", maxY)
		} else if r == height-1 {
			label = fmt.Sprintf("%7.1f ", minY)
		}
		out += label + "|" + string(row) + "\n"
	}
	out += "        +" + string(repeatByte('-', width)) + "\n"
	out += fmt.Sprintf("         %-.6g%*s%.6g\n", minX, width-12, "", maxX)
	for si, s := range series {
		out += fmt.Sprintf("         %c %s\n", marks[si%len(marks)], s.Name)
	}
	return out
}

func repeatByte(b byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}
