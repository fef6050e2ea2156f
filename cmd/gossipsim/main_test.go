package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"gossipstream"
)

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"too few nodes", []string{"-nodes", "1"}},
		{"negative shards", []string{"-shards", "-1"}},
		{"zero fanout", []string{"-fanout", "0"}},
		{"negative refresh", []string{"-refresh", "-1"}},
		{"negative feed", []string{"-feed", "-2"}},
		{"negative cap", []string{"-cap", "-5"}},
		{"zero windows", []string{"-windows", "0"}},
		{"churn above one", []string{"-churn", "1.5"}},
		{"churn below zero", []string{"-churn", "-0.1"}},
		{"churn gibberish", []string{"-churn", "sometimes"}},
		{"poisson one rate", []string{"-churn", "poisson:0.01"}},
		{"poisson bad rate", []string{"-churn", "poisson:0.01,fast"}},
		{"poisson negative rate", []string{"-churn", "poisson:-0.01,0.01"}},
		{"poisson joins need cyclon", []string{"-shards", "2", "-churn", "poisson:0.01,0.01"}},
		{"unknown membership", []string{"-membership", "gospel"}},
		{"unknown flag", []string{"-bogus"}},
		{"stray argument", []string{"extra"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err == nil {
				t.Fatalf("args %v accepted, want error", tc.args)
			}
		})
	}
}

func TestHelpIsNotAnError(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-h"}, &out); err != nil {
		t.Fatalf("-h returned error: %v", err)
	}
	if !strings.Contains(out.String(), "-nodes") {
		t.Fatalf("usage not printed:\n%s", out.String())
	}
}

// wallRe matches the header's wall time, which differs run to run.
var wallRe = regexp.MustCompile(`in [0-9.µnm]+s `)

func stripWall(s string) string { return wallRe.ReplaceAllString(s, "in X ") }

// completeRe captures the offline mean-complete percentage from the report.
var completeRe = regexp.MustCompile(`mean complete windows offline\s+([0-9.]+)%`)

func smoke(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return out.String()
}

// TestSmokeRunDefaultShards: without -shards the run is the one-shard
// run, and the header says so in the singular.
func TestSmokeRunDefaultShards(t *testing.T) {
	got := smoke(t, "-nodes", "40", "-windows", "2", "-seed", "3")
	if !strings.Contains(got, "sharded engine, 1 shard)") {
		t.Fatalf("missing engine line in output:\n%s", got)
	}
	if one := smoke(t, "-nodes", "40", "-windows", "2", "-seed", "3", "-shards", "1"); stripWall(one) != stripWall(got) {
		t.Fatalf("-shards 1 and the default report differently:\n--- default ---\n%s\n--- -shards 1 ---\n%s", got, one)
	}
	m := completeRe.FindStringSubmatch(got)
	if m == nil {
		t.Fatalf("no quality line in output:\n%s", got)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil || v <= 0 {
		t.Fatalf("offline completeness = %q, want > 0", m[1])
	}
}

func TestSmokeRunSharded(t *testing.T) {
	got := smoke(t, "-nodes", "40", "-windows", "2", "-seed", "3", "-shards", "2")
	if !strings.Contains(got, "sharded engine, 2 shards") {
		t.Fatalf("missing engine line in output:\n%s", got)
	}
	m := completeRe.FindStringSubmatch(got)
	if m == nil {
		t.Fatalf("no quality line in output:\n%s", got)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil || v <= 0 {
		t.Fatalf("offline completeness = %q, want > 0", m[1])
	}
}

func TestSmokeRunShardedCyclon(t *testing.T) {
	got := smoke(t, "-nodes", "40", "-windows", "2", "-seed", "3", "-shards", "2", "-membership", "cyclon")
	if !strings.Contains(got, "membership cyclon") {
		t.Fatalf("missing membership in protocol line:\n%s", got)
	}
	m := completeRe.FindStringSubmatch(got)
	if m == nil {
		t.Fatalf("no quality line in output:\n%s", got)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil || v <= 0 {
		t.Fatalf("offline completeness = %q, want > 0", m[1])
	}
}

// TestSmokeRunSustainedChurn drives the full stack: Poisson joins admitted
// at runtime over Cyclon views, leaves via the crash path, and the
// present-node quality report.
func TestSmokeRunSustainedChurn(t *testing.T) {
	got := smoke(t, "-nodes", "120", "-windows", "3", "-seed", "3", "-shards", "2",
		"-membership", "cyclon", "-churn", "poisson:0.02,0.02")
	if !strings.Contains(got, "sustained churn:") {
		t.Fatalf("missing sustained-churn report:\n%s", got)
	}
	m := regexp.MustCompile(`complete windows \(present\)\s+([0-9.]+)%`).FindStringSubmatch(got)
	if m == nil {
		t.Fatalf("no present-node quality line:\n%s", got)
	}
	if v, err := strconv.ParseFloat(m[1], 64); err != nil || v <= 0 {
		t.Fatalf("present-node completeness = %q, want > 0", m[1])
	}
}

func TestVerbosePerNodeTable(t *testing.T) {
	got := smoke(t, "-nodes", "10", "-windows", "1", "-shards", "2", "-v")
	if !strings.Contains(got, "complete%") {
		t.Fatalf("verbose run missing per-node table:\n%s", got)
	}
	m := regexp.MustCompile(`retransmission batches: (\d+) retired by a SERVE, \d+ checked at their deadline; \d+ idle timer wakeups`).FindStringSubmatch(got)
	if m == nil || m[1] == "0" {
		t.Fatalf("verbose run missing the retransmission totals, or no batch was retired:\n%s", got)
	}
}

// TestStreamingMatchesBatchReport: the same seed reported with and
// without -streaming prints identical quality lines (bit-identical
// scoring is pinned upstream; this checks the CLI wiring end to end).
// The upload line is excluded: the streaming digest quotes bucketed
// histogram quantiles, not the exact retained median.
func TestStreamingMatchesBatchReport(t *testing.T) {
	args := []string{"-nodes", "60", "-windows", "2", "-seed", "5", "-shards", "2", "-churn", "0.2"}
	strip := func(s string) string {
		var keep []string
		for _, line := range strings.Split(stripWall(s), "\n") {
			if !strings.Contains(line, "upload max/median/min") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	batch := smoke(t, args...)
	stream := smoke(t, append(args, "-streaming")...)
	if strip(batch) != strip(stream) {
		t.Fatalf("-streaming changed the report:\n--- batch ---\n%s\n--- streaming ---\n%s", batch, stream)
	}
}

func TestStreamingRejectsVerbose(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-streaming", "-v", "-nodes", "10", "-windows", "1"}, &out); err == nil {
		t.Fatal("-streaming with -v accepted")
	}
}

// TestDefaultShardsStreamingTelemetry: -streaming and -telemetry need no
// -shards; the manifest records the one shard that ran and, as a sharded
// run would, a snapshot for every simulated second.
func TestDefaultShardsStreamingTelemetry(t *testing.T) {
	got := smoke(t, "-nodes", "40", "-windows", "2", "-seed", "3", "-streaming", "-telemetry", "-")
	var m struct {
		Config     gossipstream.ExperimentConfig `json:"config"`
		ShardLoads []json.RawMessage             `json:"shard_loads"`
		Snapshots  []json.RawMessage             `json:"snapshots"`
	}
	parseManifest(t, got, &m)
	simulated := m.Config.Layout.Duration() + m.Config.Drain
	want := int(simulated / time.Second)
	if m.Config.Shards != 1 || len(m.ShardLoads) != 1 || len(m.Snapshots) < want {
		t.Fatalf("manifest records %d shards, %d shard loads, %d snapshots over %v; want 1, 1, at least %d",
			m.Config.Shards, len(m.ShardLoads), len(m.Snapshots), simulated, want)
	}
}

// parseManifest decodes the JSON manifest that -telemetry - appends to a
// report into m.
func parseManifest(t *testing.T, report string, m any) {
	t.Helper()
	i := strings.Index(report, "{")
	if i < 0 {
		t.Fatalf("no JSON manifest in output:\n%s", report)
	}
	if err := json.Unmarshal([]byte(report[i:]), m); err != nil {
		t.Fatalf("manifest does not parse: %v\n%s", err, report[i:])
	}
}

// TestTelemetryManifest: -telemetry - appends a parseable JSON manifest
// with the config, quality columns, and per-shard load table.
func TestTelemetryManifest(t *testing.T) {
	got := smoke(t, "-nodes", "40", "-windows", "2", "-seed", "3", "-shards", "2", "-telemetry", "-")
	var m map[string]any
	parseManifest(t, got, &m)
	if m["tool"] != "gossipsim" {
		t.Fatalf("manifest tool = %v", m["tool"])
	}
	for _, key := range []string{"config", "quality", "nodes", "shard_loads", "snapshots", "wall", "traffic", "upload_kbps"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("manifest missing %q:\n%s", key, got)
		}
	}
	wall, _ := m["wall"].(map[string]any)
	if v, _ := wall["run_ns"].(float64); v <= 0 {
		t.Fatalf("manifest wall profile not sampled: %v", m["wall"])
	}
}

// TestTelemetryManifestFile: the manifest lands in the named file.
func TestTelemetryManifestFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	smoke(t, "-nodes", "24", "-windows", "1", "-shards", "2", "-telemetry", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Events uint64 `json:"events"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Events == 0 {
		t.Fatal("manifest reports zero events")
	}
}
