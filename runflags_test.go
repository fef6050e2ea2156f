package gossipstream

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// parseRunFlags registers the shared run flags (with telemetry) on a
// fresh flag set and parses args into them.
func parseRunFlags(t *testing.T, args ...string) *RunFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var rf RunFlags
	rf.Register(fs)
	rf.RegisterTelemetry(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return &rf
}

func TestRunFlagsApply(t *testing.T) {
	cfg := smallExperiment()
	rf := parseRunFlags(t, "-shards", "3", "-seed", "9", "-membership", "cyclon",
		"-churn", "poisson:0.01,0.02", "-streaming", "-telemetry", "-")
	if err := rf.Apply(&cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 9 || cfg.Shards != 3 || cfg.Membership != MembershipCyclon || !cfg.StreamingMetrics {
		t.Fatalf("flags not applied: %+v", cfg)
	}
	// Rates are fractions of the 36-node population.
	if p := cfg.ChurnProcess; p == nil || p.JoinPerSec != 0.01*36 || p.LeavePerSec != 0.02*36 {
		t.Fatalf("churn process %+v, want 0.36/s joins, 0.72/s leaves", p)
	}
	tel := cfg.Telemetry
	if tel == nil || tel.SnapshotEvery != time.Second || tel.Clock == nil || tel.OnSnapshot != nil {
		t.Fatalf("-telemetry wiring %+v, want 1 s snapshots, a clock and no progress line", tel)
	}

	plain := smallExperiment()
	if err := parseRunFlags(t).Apply(&plain); err != nil {
		t.Fatal(err)
	}
	if plain.Telemetry != nil || plain.Membership != MembershipFull || plain.Shards != 0 {
		t.Fatalf("defaults applied as %+v", plain)
	}
}

func TestRunFlagsApplyRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-shards", "-1"},
		{"-membership", "gospel"},
		{"-churn", "sometimes"},
		{"-churn", "poisson:0.01"},
	} {
		cfg := smallExperiment()
		if err := parseRunFlags(t, args...).Apply(&cfg); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestMembershipString(t *testing.T) {
	for m, want := range map[Membership]string{0: "full", MembershipFull: "full", MembershipCyclon: "cyclon"} {
		if got := m.String(); got != want {
			t.Errorf("Membership(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestWriteManifest(t *testing.T) {
	v := map[string]int{"events": 3}
	var out bytes.Buffer
	if err := WriteManifest("-", v, &out); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.json")
	if err := WriteManifest(path, v, nil); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\n  \"events\": 3\n}\n"; out.String() != want || string(file) != want {
		t.Fatalf("stdout %q, file %q; want %q", out.String(), file, want)
	}
}

// FuzzConfigJSONRoundTrip checks the property a -telemetry manifest needs
// to describe its run exactly: every config that validates decodes from
// its JSON encoding to a deeply equal config. The seed corpus covers
// every -churn spelling (the sustained ones over Cyclon, which they
// need), heterogeneous caps and free-riders; `go test -fuzz FuzzConfigJSONRoundTrip .` searches further.
func FuzzConfigJSONRoundTrip(f *testing.F) {
	for i, churn := range []string{"0", "0.3", "poisson:0.01,0.02", "graceful:0.02,0.01", "flash:2,3", "flash:1.5,4,2.5"} {
		f.Add(churn, true, int64(i), uint16(60), uint8(3), 0.2, uint8(2), uint8(i), int64(7_500_000_000))
		f.Add(churn, i >= 2, int64(-i), uint16(230), uint8(120), 0.0, uint8(0), uint8(0), int64(0))
	}
	f.Fuzz(func(t *testing.T, churn string, cyclon bool, seed int64, nodes uint16, windows uint8,
		riders float64, mix, shards uint8, drain int64) {
		cfg := DefaultExperiment()
		cfg.Seed = seed
		cfg.Nodes = int(nodes)
		cfg.Layout.Windows = int(windows)
		cfg.FreeRiders = riders
		cfg.Shards = int(shards % 8)
		cfg.StreamingMetrics = shards%3 == 0
		cfg.Drain = time.Duration(drain)
		if cyclon {
			cfg.Membership = MembershipCyclon
		}
		for i := range int(mix % 4) {
			cfg.UploadCapMix = append(cfg.UploadCapMix, int64(i+1)*350_000)
		}
		if ApplyChurnFlag(&cfg, churn) != nil || cfg.Validate() != nil {
			t.Skip()
		}
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got ExperimentConfig
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, cfg) {
			t.Fatalf("config changed through JSON:\n got %+v\nwant %+v\njson %s", got, cfg, data)
		}
	})
}
