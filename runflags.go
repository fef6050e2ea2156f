package gossipstream

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"gossipstream/internal/telemetry/teleclock"
)

// RunFlags is the command-line front end shared by cmd/gossipsim,
// cmd/figures and examples/megascale: the run options every tool takes,
// registered and applied in one place so their names, defaults, accepted
// spellings and error wording cannot drift between the tools.
type RunFlags struct {
	Seed       int64
	Shards     int
	Membership string
	Churn      string
	Streaming  bool
	// Telemetry (a JSON run manifest path, - = stdout) and Progress (a
	// live line on stderr) are registered by RegisterTelemetry, for the
	// tools that run one deployment.
	Telemetry string
	Progress  bool
}

// Register declares -seed, -shards, -membership, -churn and -streaming
// on fs; shards is the tool's -shards default.
func (f *RunFlags) Register(fs *flag.FlagSet, shards int) {
	fs.Int64Var(&f.Seed, "seed", 1, "simulation seed")
	fs.IntVar(&f.Shards, "shards", shards, "parallel simulation shards (0 = default (1); one shard runs inline)")
	fs.StringVar(&f.Membership, "membership", "full", "membership substrate: full (the paper's global view) or cyclon (partial views)")
	fs.StringVar(&f.Churn, "churn", "0", "churn: a fraction failing mid-stream; poisson:<join>,<leave> or graceful:<join>,<leave> fractions of the population per second (sustained; graceful leavers announce their exit); or flash:<mult>,<secs>[,<start-secs>] (a crowd joining at once; joins need -membership cyclon)")
	fs.BoolVar(&f.Streaming, "streaming", false, "retain no per-node rows (the memory unlock at scale); every score is the same, only per-node detail needs the rows")
}

// RegisterTelemetry declares -telemetry and -progress on fs.
func (f *RunFlags) RegisterTelemetry(fs *flag.FlagSet) {
	fs.StringVar(&f.Telemetry, "telemetry", "", "write a JSON run manifest to this path (- = stdout)")
	fs.BoolVar(&f.Progress, "progress", false, "print a live progress line to stderr")
}

// Apply checks the flags and writes them into cfg. Call it once cfg.Nodes
// and cfg.Layout are final: -churn scales with the population and places
// its bursts by the stream's length (ApplyChurnFlag).
func (f *RunFlags) Apply(cfg *ExperimentConfig) error {
	if f.Shards < 0 {
		return fmt.Errorf("-shards %d: want >= 0", f.Shards)
	}
	switch f.Membership {
	case "full":
		cfg.Membership = MembershipFull
	case "cyclon":
		cfg.Membership = MembershipCyclon
	default:
		return fmt.Errorf("-membership %q: want full or cyclon", f.Membership)
	}
	if err := ApplyChurnFlag(cfg, f.Churn); err != nil {
		return fmt.Errorf("-%w", err)
	}
	cfg.Seed, cfg.Shards, cfg.StreamingMetrics = f.Seed, f.Shards, f.Streaming
	if f.Progress || f.Telemetry != "" {
		// Introspection hooks: a wall-clock sampler always (the manifest's
		// wall split), snapshots every simulated second, and the live line
		// when asked. None of it perturbs the simulated run.
		cfg.Telemetry = &TelemetryOptions{SnapshotEvery: time.Second, Clock: NewWallClock()}
		if f.Progress {
			cfg.Telemetry.OnSnapshot = teleclock.Progress(os.Stderr)
		}
	}
	return nil
}

// Run executes cfg, ends the progress line, and reports the run's wall
// time beside its result.
func (f *RunFlags) Run(cfg ExperimentConfig) (*ExperimentResult, time.Duration, error) {
	start := time.Now()
	res, err := RunExperiment(cfg)
	if f.Progress {
		teleclock.Done(os.Stderr)
	}
	return res, time.Since(start), err
}

// WriteManifest writes v as indented JSON to path, or to stdout for "-":
// the -telemetry output of every tool.
func WriteManifest(path string, v any, stdout io.Writer) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("-telemetry: %w", err)
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("-telemetry: %w", err)
	}
	return nil
}
