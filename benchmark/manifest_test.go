package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	gs "gossipstream"
)

// manifest is BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	f, err := os.Open("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the runner must name the same workloads and metrics.
func TestManifestMatchesTheRunner(t *testing.T) {
	m := readManifest(t)
	if strings.Join(m.Command, " ") != "bash benchmark/run.sh" || strings.Join(m.Paths, " ") != "benchmark" {
		t.Errorf("command %q, paths %q", m.Command, m.Paths)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %v, the -seconds default %v", m.RunSeconds, float64(defaultSeconds))
	}

	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, the runner has %d", len(m.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range workloads {
		got := m.Workloads[i]
		if got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: declared %q (%q), the runner has %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") || seen[w.name] {
			t.Errorf("workload %q breaks the naming contract", w.name)
		}
		seen[w.name] = true
	}

	check := func(kind string, declared []manifestMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Errorf("%s: %d metrics declared, the runner has %d", kind, len(declared), len(defs))
		}
		units := map[string]string{}
		for _, d := range defs {
			units[d.name] = d.unit
		}
		for _, d := range declared {
			if unit, ok := units[d.Name]; !ok || unit != d.Unit {
				t.Errorf("%s: %s (%s) is declared but the runner has unit %q", kind, d.Name, d.Unit, unit)
			}
			delete(units, d.Name)
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
				t.Errorf("%s: %q (%q) breaks the naming contract", kind, d.Name, d.Unit)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: %s is better %q", kind, d.Name, d.Better)
			}
			if bounded != (d.Bound != nil) || (bounded && (*d.Bound <= 0 || *d.Bound > 0.25)) {
				t.Errorf("%s: %s has a wrong bound", kind, d.Name)
			}
		}
		for name := range units {
			t.Errorf("%s: the runner reports %s, which is not declared", kind, name)
		}
	}
	check("end_to_end", m.EndToEnd, endToEndMetrics, true)
	check("per_layer", m.PerLayer, perLayerMetrics, false)
}

// Every workload must emit exactly the declared metrics, traced and untraced.
// report fails on a missing and on an undeclared name alike.
func TestEveryRunReportsExactlyTheDeclaredMetrics(t *testing.T) {
	for _, w := range workloads {
		e2e, err := runEndToEnd(w, endToEndOptions{seed: 2, sc: toyScale})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if _, err := e2e.metrics.report(endToEndMetrics); err != nil {
			t.Errorf("%s, untraced: %v", w.name, err)
		}
		if n := len(e2e.samples["wall_s_per_sim_s"]); n != minReps || e2e.runs != minReps+1 {
			t.Errorf("%s: %d timed repetitions, %d runs; want %d and %d", w.name, n, e2e.runs, minReps, minReps+1)
		}
		for name, v := range e2e.metrics {
			if v <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, name, v)
			}
		}
		traced, err := runTraced(w, 2, toyScale)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if _, err := traced.metrics.report(perLayerMetrics); err != nil {
			t.Errorf("%s, traced: %v", w.name, err)
		}
		if r := traced.metrics["trace.event_ratio"]; r != 1 {
			t.Errorf("%s: trace.event_ratio is %v, want 1", w.name, r)
		}
	}
}

func TestObserveChecksConservation(t *testing.T) {
	res, err := gs.RunExperiment(steady1Shard.build(1, toyScale))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := observe(res); err != nil {
		t.Fatalf("a clean run fails the checks: %v", err)
	}
	res.TotalTraffic.RecvMsgs[1] += 1 << 40
	if _, err := observe(res); err == nil {
		t.Error("more messages received than sent passed the conservation check")
	}
	res.TotalTraffic.RecvMsgs[1] -= 1<<40 + 1<<30
	if _, err := observe(res); err == nil {
		t.Error("a billion messages lost without a trace passed the conservation check")
	}
}
