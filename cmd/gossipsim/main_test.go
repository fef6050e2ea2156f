package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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
		{"negative nodes", []string{"-nodes", "-5"}},
		{"negative shards", []string{"-shards", "-1"}},
		{"zero fanout", []string{"-fanout", "0"}},
		{"negative refresh", []string{"-refresh", "-1"}},
		{"negative feed", []string{"-feed", "-2"}},
		{"negative cap", []string{"-cap", "-5"}},
		{"zero windows", []string{"-windows", "0"}},
		{"negative windows", []string{"-windows", "-3"}},
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
			// A rejected run prints at most the usage, never a report.
			if out.Len() > 0 && !strings.Contains(out.String(), "Usage") {
				t.Fatalf("args %v ran before failing:\n%s", tc.args, out.String())
			}
		})
	}
}

// TestHelpIsNotAnError: -h is not an error, and it lists exactly these
// flags. One tool runs one deployment, from the paper's testbed to 100k
// nodes, so a new flag is a deliberate change to this list.
func TestHelpIsNotAnError(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-h"}, &out); err != nil {
		t.Fatalf("-h returned error: %v", err)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\w+)`).FindAllStringSubmatch(out.String(), -1) {
		got = append(got, m[1])
	}
	want := []string{"cap", "churn", "cpuprofile", "fanout", "feed", "freeriders", "membership",
		"memprofile", "nodes", "progress", "refresh", "seed", "shards", "streaming",
		"telemetry", "trace", "v", "windows"}
	if !slices.Equal(got, want) {
		t.Fatalf("-h lists flags %v, want %v:\n%s", got, want, out.String())
	}
}

// wallRe matches what the report reads off the wall clock: the header's
// wall time and the engine line's event rate.
var wallRe = regexp.MustCompile(`in [0-9.µnm]+s |[0-9]+ events/s`)

func stripWall(s string) string { return wallRe.ReplaceAllString(s, "X") }

// ledgerRe captures the message ledger at the end of a report.
var ledgerRe = regexp.MustCompile(`messages: (\d+) sent, (\d+) delivered, \d+ congestion-dropped,\n\s+(\d+) lost \(UDP\), (\d+) to/from crashed nodes, (\d+) in flight at deadline`)

// TestReportLedger: a run reports its survivors and a message ledger that
// balances — every message sent was delivered, lost, dropped at a crashed
// endpoint or still in flight, none twice — and the events each shard ran.
// Under a crash burst the ledger shows traffic to or from crashed nodes, on
// one shard and across two; without one it shows none.
func TestReportLedger(t *testing.T) {
	cases := []struct {
		name      string
		args      []string
		survivors string
		crash     bool
	}{
		{"crash one shard", []string{"-churn", "0.2"}, "79 / 99", true},
		{"crash two shards", []string{"-shards", "2", "-churn", "0.2"}, "79 / 99", true},
		{"no crash two shards", []string{"-shards", "2"}, "99 / 99", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := smoke(t, append([]string{"-nodes", "100", "-windows", "2", "-seed", "3"}, tc.args...)...)
			if !regexp.MustCompile(`survivors / nodes +` + tc.survivors + `\n`).MatchString(got) {
				t.Fatalf("want %s peers surviving:\n%s", tc.survivors, got)
			}
			if !regexp.MustCompile(`engine: \d+ events/s of wall time, [1-9]\d*\.\.\d+ events per shard`).MatchString(got) {
				t.Fatalf("no engine line:\n%s", got)
			}
			m := ledgerRe.FindStringSubmatch(got)
			if m == nil {
				t.Fatalf("no message ledger:\n%s", got)
			}
			var n [5]uint64
			for i := range n {
				n[i], _ = strconv.ParseUint(m[i+1], 10, 64)
			}
			sent, delivered, lost, crashed, inFlight := n[0], n[1], n[2], n[3], n[4]
			if delivered == 0 || inFlight > sent || delivered+lost+crashed+inFlight != sent {
				t.Fatalf("ledger %d sent = %d delivered + %d lost + %d crashed + %d in flight does not balance:\n%s",
					sent, delivered, lost, crashed, inFlight, got)
			}
			if (crashed > 0) != tc.crash {
				t.Fatalf("%d messages to/from crashed nodes, want crash traffic %v:\n%s", crashed, tc.crash, got)
			}
		})
	}
}

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

// TestFlashCrowdFarInstantsNeverPanic: flash crowds whose join instants
// lie near the int64 limit — a span so long that j·Over overflows, a
// start so late that start plus offset does — end in an error or a
// completed run, not in a panic on a negative barrier instant.
func TestFlashCrowdFarInstantsNeverPanic(t *testing.T) {
	for _, args := range [][]string{
		{"-nodes", "1000", "-windows", "2", "-membership", "cyclon", "-churn", "flash:2,10000000"},
		{"-nodes", "20", "-windows", "2", "-membership", "cyclon", "-churn", "flash:2,1,9223372036"},
	} {
		t.Run(args[len(args)-1], func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("run(%v) panicked: %v", args, r)
				}
			}()
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Logf("run(%v): %v", args, err)
			}
		})
	}
}

// TestReportColumnsAlign: every labelled value of a report, churn and
// free-rider lines included, starts in one column, and the header's
// "value" ends where the percentages do.
func TestReportColumnsAlign(t *testing.T) {
	got := smoke(t, "-nodes", "60", "-windows", "3", "-membership", "cyclon", "-churn", "poisson:0.02,0.02", "-freeriders", "0.2")
	pct := regexp.MustCompile(`^(.*\S) +-?[0-9.]+%$`)
	rows := 0
	for _, line := range strings.Split(got, "\n") {
		if strings.HasPrefix(line, "metric ") {
			if !strings.HasSuffix(line, "value") || len(line) != labelWidth+9 {
				t.Errorf("header %q does not end at column %d", line, labelWidth+9)
			}
			continue
		}
		if m := pct.FindStringSubmatch(line); m != nil {
			rows++
			if len(m[1]) > labelWidth || len(line) != labelWidth+9 {
				t.Errorf("%q: its value does not end at column %d", line, labelWidth+9)
			}
		}
	}
	if rows < 8 {
		t.Fatalf("%d percentage rows, want the quality, churn and free-rider ones:\n%s", rows, got)
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
