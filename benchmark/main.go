// Command benchmark is the repository's benchmark: four workloads of about
// three million simulator events each, eight end-to-end metrics measured with
// tracing off, and a traced pass that splits the time by layer. See
// README.md in this directory for the glossary and the noise protocol, and
// BENCHMARK.json at the repository root for the bounds.
//
// Run it through run.sh, which builds it inside the checkout:
//
//	bash benchmark/run.sh -seed 1 [-out file.json]
//	    every workload untraced, then every traced pass, each in a fresh
//	    process of this binary, one at a time; prints every metric by name
//	    with its unit and exits non-zero if any output check fails.
//
//	bash benchmark/run.sh --workload steady_1shard --seed 1 --seconds 15 --trace 0
//	    one run of one workload; the last line of standard output is the
//	    result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// result is the last line a single run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// box describes the machine and toolchain a number was taken on.
type box struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go_version"`
}

func thisBox() box {
	b := box{CPUModel: "unknown", Kernel: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				b.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		b.Kernel = strings.TrimSpace(string(data))
	}
	return b
}

func (b box) String() string {
	return fmt.Sprintf("box: %s, nproc %d, GOMAXPROCS %d, kernel %s, %s", b.CPUModel, b.NumCPU, b.GOMAXPROCS, b.Kernel, b.GoVersion)
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print its result line (default: run them all)")
		seed         = flag.Int64("seed", 1, "seed every input is generated from")
		seconds      = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass, per-layer metrics")
		outPath      = flag.String("out", "", "with no -workload: also write every result to this file as JSON")
		spansDir     = flag.String("spans", "", "directory a traced run writes its span dump to (default: none)")
		setupOnly    = flag.Bool("setup-only", false, "internal: run the set-up of -workload, print its seconds, exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *workloadName == "" {
		if err := runAll(*seed, *seconds, *outPath, *spansDir); err != nil {
			fatal(err)
		}
		return
	}
	w, err := findWorkload(*workloadName)
	if err != nil {
		fatal(err)
	}
	if cpus := min(runtime.NumCPU(), runtime.GOMAXPROCS(0)); cpus < 2 && (*trace == 1 || w.build(*seed, fullScale).Shards > 1) {
		// On one CPU two shards would measure time-slicing, not the engine.
		fatal(fmt.Errorf("%s, trace %d runs two shards and needs 2 CPUs (nproc %d, GOMAXPROCS %d)", w.name, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0)))
	}
	if *setupOnly {
		s, err := setUp(w, *seed, fullScale)
		if err != nil {
			fatal(err)
		}
		fmt.Println(s)
		return
	}
	fmt.Println(thisBox())
	var res result
	switch *trace {
	case 0:
		res, err = reportEndToEnd(w, *seed, *seconds)
	case 1:
		res, err = reportTraced(w, *seed, *spansDir)
	default:
		err = fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if err != nil {
		// An output check failed: say so in the result line and in the exit code.
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		printResult(result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}})
		os.Exit(1)
	}
	printResult(res)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func printResult(r result) {
	line, err := json.Marshal(r)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// digestPrefix starts the line an untraced run prints its sim_digest on.
const digestPrefix = "sim_digest "

// setupProcesses is how many fresh processes pay the set-up in one run: this
// one and two children. The median of three is what the run reports.
const setupProcesses = 3

// reportEndToEnd makes one untraced run of one workload and prints what it
// measured. An operation is one simulated deployment run to completion and
// checked; none may fail.
func reportEndToEnd(w workload, seed int64, seconds float64) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	r, err := runEndToEnd(w, endToEndOptions{seed: seed, seconds: seconds, sc: fullScale, setupChildren: setupProcesses - 1, exe: exe})
	if err != nil {
		return result{}, err
	}
	fmt.Printf("%s seed %d: %d events over %.1f simulated s\n", w.name, seed, r.sim.Events, r.sim.SimSeconds)
	fmt.Println(digestPrefix + r.sim.digest())
	for _, d := range endToEndMetrics {
		if s, ok := r.samples[d.name]; ok {
			fmt.Printf("  %-20s %s %s\n", d.name, s, d.unit)
		} else {
			fmt.Printf("  %-20s %.6g %s\n", d.name, r.metrics[d.name], d.unit)
		}
	}
	fmt.Println("  (timings are medians; fewer than ten samples support no percentile beyond the median)")
	metrics, err := r.metrics.report(endToEndMetrics)
	if err != nil {
		return result{}, err
	}
	return result{Correct: true, Attempted: r.runs + setupProcesses - 1, Metrics: metrics}, nil
}

// reportTraced makes the traced pass of one workload and prints what it
// measured.
func reportTraced(w workload, seed int64, spansDir string) (result, error) {
	r, err := runTraced(w, seed, fullScale)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("%s seed %d, traced pass\n", w.name, seed)
	for _, d := range perLayerMetrics {
		fmt.Printf("  %-38s %.6g %s\n", d.name, r.metrics[d.name], d.unit)
	}
	fmt.Println("  rt:", r.rtNote)
	fmt.Print(splitTable(r.dump.Twins["own"]))
	if spansDir != "" {
		path, err := writeSpanDump(spansDir, r.dump)
		if err != nil {
			return result{}, err
		}
		fmt.Println("spans written to", path)
	}
	metrics, err := r.metrics.report(perLayerMetrics)
	if err != nil {
		return result{}, err
	}
	return result{Correct: true, Attempted: r.runs, Metrics: metrics}, nil
}

// allResults is the -out file of a run over every workload.
type allResults struct {
	Box       box               `json:"box"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	EndToEnd  map[string]result `json:"end_to_end"`
	PerLayer  map[string]result `json:"per_layer"`
	SimDigest map[string]string `json:"sim_digest"`
}

// runAll runs every workload untraced and then every traced pass, each in a
// fresh process of this binary, one at a time, echoing what they print.
func runAll(seed int64, seconds float64, outPath, spansDir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	all := allResults{
		Box: thisBox(), Seed: seed, Seconds: seconds,
		EndToEnd: map[string]result{}, PerLayer: map[string]result{}, SimDigest: map[string]string{},
	}
	for trace, into := range []map[string]result{all.EndToEnd, all.PerLayer} {
		for _, w := range workloads {
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
			if spansDir != "" {
				args = append(args, "-spans", spansDir)
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			os.Stdout.Write(stdout)
			if err != nil {
				return fmt.Errorf("%s, trace %d: %w", w.name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				return fmt.Errorf("%s, trace %d: result line: %w", w.name, trace, err)
			}
			if !r.Correct || r.Failed > 0 {
				return fmt.Errorf("%s, trace %d: output checks failed", w.name, trace)
			}
			into[w.name] = r
			for _, line := range lines {
				if digest, ok := strings.CutPrefix(line, digestPrefix); ok {
					all.SimDigest[w.name] = digest
				}
			}
		}
	}
	if outPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(data, '\n'), 0o644)
}
