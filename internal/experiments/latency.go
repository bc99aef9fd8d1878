package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/dps-overlay/dps/internal/conform"
	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/metrics"
)

// The latency experiment validates the paper's §6 conclusion that "the
// publication process benefits from the root-based approach that obviously
// provides lower latency": it measures, per (event, subscriber) delivery,
// the number of steps between publication and notification under each
// traversal strategy.

// LatencyOptions parameterise the study.
type LatencyOptions struct {
	Seed        int64
	Nodes       int
	SubsPerNode int
	Events      int
	Configs     []conform.ConfigSpec
	// Parallelism is the engine worker count: 0/1 sequential, W > 1
	// parallel on W workers, negative one worker per CPU. Metrics are
	// bit-identical across worker counts for a given seed.
	Parallelism int
}

// DefaultLatencyOptions compares root vs generic traversal under leader
// communication at a laptop-friendly size.
func DefaultLatencyOptions() LatencyOptions {
	return LatencyOptions{
		Seed:        1,
		Nodes:       400,
		SubsPerNode: 2,
		Events:      200,
		Configs: []conform.ConfigSpec{
			{Name: "root", Traversal: core.RootBased, Comm: core.LeaderBased},
			{Name: "generic", Traversal: core.Generic, Comm: core.LeaderBased},
		},
	}
}

// LatencyRow is one configuration's latency distribution.
type LatencyRow struct {
	Config     string
	MeanSteps  float64
	P95Steps   int64
	MaxSteps   int64
	Deliveries int
	Ratio      float64
}

// LatencyResult bundles the rows.
type LatencyResult struct {
	Rows []LatencyRow
	Opts LatencyOptions
}

// RunLatency measures publish→notify latency per traversal strategy.
func RunLatency(opts LatencyOptions) (*LatencyResult, error) {
	if opts.Nodes <= 0 || opts.Events <= 0 {
		return nil, fmt.Errorf("experiments: latency needs positive sizes")
	}
	res := &LatencyResult{Opts: opts}
	for _, spec := range opts.Configs {
		e, err := settledEngine(spec, opts.Seed, opts.Parallelism, opts.Nodes, opts.SubsPerNode, nil)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(opts.Seed ^ 0x1a7))
		for i := 0; i < opts.Events; i++ {
			e.PublishTracked(rng)
			e.Run(5) // spaced publications; latencies still overlap
		}
		e.Run(80)
		lats := e.Latencies()
		row := LatencyRow{
			Config:     spec.Name,
			Deliveries: len(lats),
			Ratio:      e.Ratio(),
			P95Steps:   metrics.Percentile(lats, 0.95),
			MaxSteps:   metrics.Max(lats),
		}
		var sum int64
		for _, l := range lats {
			sum += l
		}
		if len(lats) > 0 {
			row.MeanSteps = float64(sum) / float64(len(lats))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the latency comparison.
func (r *LatencyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Latency — publish→notify steps per traversal (§6: root-based is faster)\n")
	fmt.Fprintf(&b, "(%d nodes × %d subscriptions, %d events, seed %d)\n",
		r.Opts.Nodes, r.Opts.SubsPerNode, r.Opts.Events, r.Opts.Seed)
	fmt.Fprintf(&b, "%-10s %10s %8s %8s %12s %8s\n",
		"traversal", "mean", "p95", "max", "deliveries", "ratio")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %10.2f %8d %8d %12d %8.3f\n",
			row.Config, row.MeanSteps, row.P95Steps, row.MaxSteps,
			row.Deliveries, row.Ratio)
	}
	return b.String()
}
