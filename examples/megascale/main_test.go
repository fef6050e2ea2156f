package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"zero seconds", []string{"-seconds", "0"}},
		{"negative seconds", []string{"-seconds", "-3"}},
		{"stray argument", []string{"extra"}},
		{"unknown membership", []string{"-membership", "gospel"}},
		{"gibberish churn", []string{"-churn", "sometimes"}},
		{"negative shards", []string{"-shards", "-1"}},
		{"unknown flag", []string{"-bogus"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err == nil {
				t.Fatalf("args %v accepted, want error", tc.args)
			}
			if out.Len() > 0 && !strings.Contains(out.String(), "Usage") {
				t.Fatalf("args %v ran before failing:\n%s", tc.args, out.String())
			}
		})
	}
}

func TestHelpIsNotAnError(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-h"}, &out); err != nil {
		t.Fatalf("-h returned error: %v", err)
	}
	if !strings.Contains(out.String(), "-seconds") {
		t.Fatalf("usage not printed:\n%s", out.String())
	}
}

// TestSmokeTelemetry runs a few hundred nodes for 3 simulated seconds
// and reads the run manifest that -telemetry - appends to the report.
func TestSmokeTelemetry(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-nodes", "200", "-seconds", "3", "-telemetry", "-"}
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v\n%s", args, err, out.String())
	}
	report := out.String()
	if !strings.Contains(report, "simulating 200 nodes × 3s") || !strings.Contains(report, "messages:") {
		t.Fatalf("report incomplete:\n%s", report)
	}
	i := strings.Index(report, "{")
	if i < 0 {
		t.Fatalf("no JSON manifest in output:\n%s", report)
	}
	var m struct {
		Tool   string `json:"tool"`
		Events uint64 `json:"events"`
	}
	if err := json.Unmarshal([]byte(report[i:]), &m); err != nil {
		t.Fatalf("manifest does not parse: %v\n%s", err, report[i:])
	}
	if m.Tool != "megascale" || m.Events == 0 {
		t.Fatalf("manifest tool %q, %d events; want megascale and some events", m.Tool, m.Events)
	}
}
