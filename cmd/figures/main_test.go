package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"negative shards", []string{"-shards", "-1"}},
		{"negative nodes", []string{"-nodes", "-5"}},
		{"unknown flag", []string{"-bogus"}},
		{"stray argument", []string{"extra"}},
		{"unknown figure", []string{"-only", "9"}},
		{"unknown figure among known", []string{"-only", "1,claim,x"}},
		{"figure zero", []string{"-only", "0"}},
		{"scale above one", []string{"-scale", "1.5"}},
		{"negative scale", []string{"-scale", "-2"}},
		{"zero scale", []string{"-scale", "0"}},
		{"NaN scale", []string{"-scale", "NaN"}},
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
	if !strings.Contains(out.String(), "-shards") {
		t.Fatalf("usage does not mention -shards:\n%s", out.String())
	}
}

// TestSmokeShardedFigure1 runs the Figure 1 fanout sweep on the sharded
// engine at tiny scale — the ROADMAP's "wire cmd/figures to Config.Shards"
// item — and checks a table lands on disk.
func TestSmokeShardedFigure1(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	args := []string{"-only", "1", "-scale", "0.07", "-shards", "2", "-nodes", "48", "-out", dir}
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v\n%s", args, err, out.String())
	}
	blob, err := os.ReadFile(filepath.Join(dir, "figure1.txt"))
	if err != nil {
		t.Fatalf("figure1.txt not written: %v", err)
	}
	if !strings.Contains(string(blob), "Figure 1") {
		t.Fatalf("figure1.txt lacks the table title:\n%s", blob)
	}
	if !strings.Contains(out.String(), "done in") {
		t.Fatalf("run did not report completion:\n%s", out.String())
	}
}

func TestChurnAndMembershipFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown membership", []string{"-membership", "gospel"}},
		{"gibberish churn", []string{"-churn", "sometimes"}},
		{"poisson one rate", []string{"-churn", "poisson:0.01"}},
		{"poisson bad rate", []string{"-churn", "poisson:a,b"}},
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

// TestSmokeSustainedChurnFigure1 runs the fanout sweep under sustained
// Poisson churn over Cyclon views — the "Figure-style sweeps under
// sustained churn" entry point — at tiny scale.
func TestSmokeSustainedChurnFigure1(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	args := []string{"-only", "1", "-scale", "0.07", "-shards", "2", "-nodes", "48",
		"-membership", "cyclon", "-churn", "poisson:0.02,0.02", "-out", dir}
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v\n%s", args, err, out.String())
	}
	if _, err := os.ReadFile(filepath.Join(dir, "figure1.txt")); err != nil {
		t.Fatalf("figure1.txt not written: %v", err)
	}
}

// TestStreamingTwinFigure1: the fanout sweep produces the identical table
// with and without -streaming (barrier-folded scoring is pinned
// bit-identical upstream; this checks the flag plumbs through). It runs
// at the default shard count: -streaming needs no -shards.
func TestStreamingTwinFigure1(t *testing.T) {
	table := func(extra ...string) string {
		t.Helper()
		dir := t.TempDir()
		var out bytes.Buffer
		args := append([]string{"-only", "1", "-scale", "0.07", "-nodes", "48",
			"-churn", "0.2", "-out", dir}, extra...)
		if err := run(args, &out); err != nil {
			t.Fatalf("run(%v): %v\n%s", args, err, out.String())
		}
		blob, err := os.ReadFile(filepath.Join(dir, "figure1.txt"))
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	batch := table()
	stream := table("-streaming")
	if batch != stream {
		t.Fatalf("-streaming changed figure 1:\n--- batch ---\n%s\n--- streaming ---\n%s", batch, stream)
	}
}

// TestCampaignManifest: -telemetry writes a JSON campaign manifest
// holding the scaled config and each emitted table in structured form.
func TestCampaignManifest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "campaign.json")
	var out bytes.Buffer
	args := []string{"-only", "1", "-scale", "0.07", "-shards", "2", "-nodes", "48",
		"-out", dir, "-telemetry", path}
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v\n%s", args, err, out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m campaignManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("campaign manifest does not parse: %v\n%s", err, data)
	}
	if m.Tool != "figures" {
		t.Fatalf("tool = %q", m.Tool)
	}
	if m.Config.Nodes <= 0 || m.Config.Shards != 2 || m.Scale != 0.07 {
		t.Fatalf("manifest config not the scaled base: %+v", m.Config)
	}
	if len(m.Tables) != 1 || m.Tables[0].Name != "figure1" {
		t.Fatalf("tables = %+v, want the single figure1 export", m.Tables)
	}
	tb := m.Tables[0]
	if len(tb.Columns) == 0 || len(tb.Rows) == 0 {
		t.Fatalf("figure1 export empty: %+v", tb)
	}
	for _, row := range tb.Rows {
		if len(row) != len(tb.Columns) {
			t.Fatalf("row width %d != %d columns", len(row), len(tb.Columns))
		}
	}
}
