package conform

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestThroughputSmoke is the PR-gate throughput check: a small run on
// the sim engine only (deterministic, no wall-clock flake surface),
// verifying the runner's plumbing — pairs delivered, rates and
// percentiles populated, JSON round-trips. The wall-clock claims (three
// engines, latency under one tick) run nightly.
func TestThroughputSmoke(t *testing.T) {
	opts := DefaultThroughputOptions()
	opts.Events = 80
	opts.Engines = []string{EngineSim}
	res, err := RunThroughput(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 1 {
		t.Fatalf("runs = %d, want one per engine", len(res.Runs))
	}
	run := res.Runs[0]
	if run.DeliveredPairs == 0 || run.ExpectedPairs == 0 {
		t.Errorf("%s: no deliveries (pairs=%d expected=%d)",
			run.Engine, run.DeliveredPairs, run.ExpectedPairs)
	}
	if run.EventsPerSec <= 0 {
		t.Errorf("%s: events_per_sec = %v", run.Engine, run.EventsPerSec)
	}
	if run.LatencyP99MS < run.LatencyP50MS {
		t.Errorf("%s: p99 %v < p50 %v", run.Engine, run.LatencyP99MS, run.LatencyP50MS)
	}
	// The storm is loss-free on the cycle engine, so a shortfall is a
	// pipeline bug, not noise.
	if run.DeliveredPairs != run.ExpectedPairs {
		t.Errorf("%s: delivered %d of %d expected pairs",
			run.Engine, run.DeliveredPairs, run.ExpectedPairs)
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("result does not marshal: %v", err)
	}
	if err := RunThroughputErrCheck(); err != nil {
		t.Error(err)
	}
}

// RunThroughputErrCheck exercises the option-validation paths.
func RunThroughputErrCheck() error {
	if _, err := RunThroughput(ThroughputOptions{Engines: []string{"quantum"}}); err == nil {
		return errInvalid("unknown engine accepted")
	}
	if _, err := RunThroughput(ThroughputOptions{Nodes: 2}); err == nil {
		return errInvalid("tiny population accepted")
	}
	return nil
}

type errInvalid string

func (e errInvalid) Error() string { return string(e) }

// TestThroughputNightly is the wall-clock half of the throughput
// experiment: all three engines under a sustained publish storm. Every
// engine must deliver every expected pair, and on the live engines
// (livenet, tcpnet) the median publish-to-delivery latency must stay
// below one tick. Each hop is forwarded the moment its handler runs, so
// an event crosses the tree within the tick it was published in; a
// pipeline that held forwarded events until the end of the tick would
// cost up to a tick per hop and fail here. Gated behind
// CONFORM_NIGHTLY=1 like the conformance matrix: latency is a claim
// about a quiet machine, not a PR runner under arbitrary load.
func TestThroughputNightly(t *testing.T) {
	if os.Getenv("CONFORM_NIGHTLY") == "" {
		t.Skip("nightly throughput; set CONFORM_NIGHTLY=1 to run")
	}
	opts := DefaultThroughputOptions()
	opts.Events = 12000
	opts.Burst = 1200
	opts.TickEvery = 8 * time.Millisecond
	opts.Nodes = 32
	opts.SubsPerNode = 1
	res, err := RunThroughput(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Render())
	if len(res.Runs) != 3 {
		t.Fatalf("runs = %d, want one per engine", len(res.Runs))
	}
	tick := float64(opts.TickEvery) / float64(time.Millisecond)
	for _, run := range res.Runs {
		if run.DeliveredPairs == 0 || run.EventsPerSec <= 0 {
			t.Errorf("%s: empty run (%+v)", run.Engine, run)
		}
		if run.DeliveredPairs != run.ExpectedPairs {
			t.Errorf("%s: delivered %d of %d expected pairs",
				run.Engine, run.DeliveredPairs, run.ExpectedPairs)
		}
		// The cycle engine steps as fast as the CPU allows, so its
		// latency measures compute, not ticks. Under the race detector
		// the instrumentation cost dominates the live engines too; the
		// race build keeps the delivery half and skips the latency gate.
		if run.Engine == EngineSim || raceEnabled {
			continue
		}
		if run.LatencyP50MS >= tick {
			t.Errorf("%s: p50 latency %.2f ms, want below one tick (%.0f ms)",
				run.Engine, run.LatencyP50MS, tick)
		}
	}
}
