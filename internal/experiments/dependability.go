package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/workload"
)

// Fig3aOptions parameterise the dependability experiment (Figure 3(a)):
// 1,000 nodes each holding three subscriptions, a 3,000-step run, one new
// event every 10 steps, and node kills uniformly spread in time with rate
// p kills per step (one kill every 1/p steps), p ∈ [0.01, 0.25] — the
// reading that reproduces the paper's reported survivor range of 97%→25%.
type Fig3aOptions struct {
	Seed         int64
	Nodes        int
	Steps        int
	SubsPerNode  int
	EventEvery   int
	FailureProbs []float64
	Configs      []ConfigSpec
	SettleTail   int
	// Parallelism is the engine worker count: 0/1 sequential, W > 1
	// parallel on W workers, negative one worker per CPU. Metrics are
	// bit-identical across worker counts for a given seed.
	Parallelism int
}

// DefaultFig3aOptions returns the paper-scale parameters.
func DefaultFig3aOptions() Fig3aOptions {
	return Fig3aOptions{
		Seed:         1,
		Nodes:        1000,
		Steps:        3000,
		SubsPerNode:  3,
		EventEvery:   10,
		FailureProbs: []float64{0.01, 0.05, 0.10, 0.15, 0.20, 0.25},
		Configs:      PaperConfigs(),
		SettleTail:   80,
	}
}

// Fig3aSeries is one curve: delivery ratio per failure probability.
type Fig3aSeries struct {
	Config string
	Probs  []float64
	Ratios []float64
	// Survivors records the fraction of nodes alive at the end, matching
	// the paper's "97% to 25% of the initial nodes".
	Survivors []float64
}

// Fig3aResult bundles all configuration curves.
type Fig3aResult struct {
	Series []Fig3aSeries
	Opts   Fig3aOptions
}

// RunFig3a reproduces Figure 3(a).
func RunFig3a(opts Fig3aOptions) (*Fig3aResult, error) {
	if opts.Nodes <= 0 || opts.Steps <= 0 {
		return nil, fmt.Errorf("experiments: fig3a needs positive sizes")
	}
	res := &Fig3aResult{Opts: opts}
	for _, spec := range opts.Configs {
		series := Fig3aSeries{Config: spec.Name}
		for _, p := range opts.FailureProbs {
			ratio, survivors := runDependabilityScenario(spec, opts, p)
			series.Probs = append(series.Probs, p)
			series.Ratios = append(series.Ratios, ratio)
			series.Survivors = append(series.Survivors, survivors)
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

func runDependabilityScenario(spec ConfigSpec, opts Fig3aOptions, p float64) (ratio, survivors float64) {
	c := NewClusterParallel(spec, opts.Seed, opts.Parallelism)
	gen := workload.MustGenerator(workload.Workload2(), opts.Seed)
	c.SubscribePopulation(opts.Nodes, opts.SubsPerNode, 25, gen)
	rng := rand.New(rand.NewSource(opts.Seed ^ 0xf19a))
	killEvery := 0
	if p > 0 {
		killEvery = int(1/p + 0.5)
		if killEvery < 1 {
			killEvery = 1
		}
	}
	for step := 1; step <= opts.Steps; step++ {
		if step%opts.EventEvery == 0 {
			c.PublishTracked(gen.Event(), rng.Int63())
		}
		if killEvery > 0 && step%killEvery == 0 && c.Engine.AliveCount() > 2 {
			c.KillRandomAlive(rng.Int63())
		}
		c.Engine.Step()
	}
	c.Engine.Run(opts.SettleTail)
	return c.Tracker.Ratio(), float64(c.Engine.AliveCount()) / float64(opts.Nodes)
}

// Render prints one row per configuration, one column per failure rate.
func (r *Fig3aResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3(a) — Dependability: ratio of delivered events vs failure probability\n")
	fmt.Fprintf(&b, "(%d nodes × %d subscriptions, %d steps, event every %d steps, seed %d)\n",
		r.Opts.Nodes, r.Opts.SubsPerNode, r.Opts.Steps, r.Opts.EventEvery, r.Opts.Seed)
	fmt.Fprintf(&b, "%-24s", "config \\ p")
	if len(r.Series) > 0 {
		for _, p := range r.Series[0].Probs {
			fmt.Fprintf(&b, "%8.2f", p)
		}
	}
	b.WriteByte('\n')
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%-24s", s.Config)
		for _, v := range s.Ratios {
			fmt.Fprintf(&b, "%8.3f", v)
		}
		b.WriteByte('\n')
	}
	if len(r.Series) > 0 {
		fmt.Fprintf(&b, "%-24s", "survivors")
		for _, v := range r.Series[0].Survivors {
			fmt.Fprintf(&b, "%8.2f", v)
		}
		b.WriteByte('\n')
	}
	b.WriteString("paper: all configs ≥ ~0.8; epidemic > leader; epidemic k=2 ≥ 0.97\n")
	return b.String()
}

// Fig3bOptions parameterise the recovery experiment (Figure 3(b)): three
// phases — calm until step 1,000, one kill every 2 steps until step 2,000,
// calm again until step 3,000 — with the delivery ratio sampled per
// window.
type Fig3bOptions struct {
	Seed        int64
	Nodes       int
	Steps       int
	SubsPerNode int
	EventEvery  int
	FailFrom    int
	FailTo      int
	KillEvery   int
	Window      int
	Configs     []ConfigSpec
	// Parallelism is the engine worker count: 0/1 sequential, W > 1
	// parallel on W workers, negative one worker per CPU. Metrics are
	// bit-identical across worker counts for a given seed.
	Parallelism int
}

// DefaultFig3bOptions returns the paper-scale parameters.
func DefaultFig3bOptions() Fig3bOptions {
	return Fig3bOptions{
		Seed:        1,
		Nodes:       1000,
		Steps:       3000,
		SubsPerNode: 3,
		EventEvery:  10,
		FailFrom:    1000,
		FailTo:      2000,
		KillEvery:   2,
		Window:      100,
		Configs: []ConfigSpec{
			{Name: "leader generic", Traversal: core.Generic, Comm: core.LeaderBased},
			{Name: "epidemic generic", Traversal: core.Generic, Comm: core.Epidemic},
			{Name: "epidemic generic k = 2", Traversal: core.Generic, Comm: core.Epidemic, Fanout: 2, CrossFanout: 2},
		},
	}
}

// Fig3bSeries is one curve: windowed delivery ratio over time.
type Fig3bSeries struct {
	Config string
	Steps  []int64
	Ratios []float64
}

// Fig3bResult bundles the curves.
type Fig3bResult struct {
	Series []Fig3bSeries
	Opts   Fig3bOptions
}

// RunFig3b reproduces Figure 3(b).
func RunFig3b(opts Fig3bOptions) (*Fig3bResult, error) {
	if opts.Nodes <= 0 || opts.Steps <= 0 || opts.Window <= 0 {
		return nil, fmt.Errorf("experiments: fig3b needs positive sizes")
	}
	res := &Fig3bResult{Opts: opts}
	for _, spec := range opts.Configs {
		c := NewClusterParallel(spec, opts.Seed, opts.Parallelism)
		gen := workload.MustGenerator(workload.Workload2(), opts.Seed)
		c.SubscribePopulation(opts.Nodes, opts.SubsPerNode, 25, gen)
		rng := rand.New(rand.NewSource(opts.Seed ^ 0x3b))
		series := Fig3bSeries{Config: spec.Name}
		// Window boundaries in engine time; ratios are computed after the
		// whole run so every window's deliveries have fully drained.
		bounds := []int64{c.Engine.Now()}
		for step := 1; step <= opts.Steps; step++ {
			if step%opts.EventEvery == 0 {
				c.PublishTracked(gen.Event(), rng.Int63())
			}
			if step > opts.FailFrom && step <= opts.FailTo &&
				step%opts.KillEvery == 0 && c.Engine.AliveCount() > 2 {
				c.KillRandomAlive(rng.Int63())
			}
			c.Engine.Step()
			if step%opts.Window == 0 {
				bounds = append(bounds, c.Engine.Now())
				series.Steps = append(series.Steps, int64(step))
			}
		}
		c.Engine.Run(60) // drain the last window's in-flight deliveries
		for i := 1; i < len(bounds); i++ {
			series.Ratios = append(series.Ratios, c.Tracker.WindowRatio(bounds[i-1], bounds[i]))
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// Render prints the recovery curves as step/ratio columns.
func (r *Fig3bResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3(b) — Recovery from failures (generic traversal)\n")
	fmt.Fprintf(&b, "(%d nodes × %d subscriptions; kills every %d steps in [%d,%d]; seed %d)\n",
		r.Opts.Nodes, r.Opts.SubsPerNode, r.Opts.KillEvery, r.Opts.FailFrom, r.Opts.FailTo, r.Opts.Seed)
	fmt.Fprintf(&b, "%8s", "step")
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%24s", s.Config)
	}
	b.WriteByte('\n')
	if len(r.Series) > 0 {
		for i, step := range r.Series[0].Steps {
			fmt.Fprintf(&b, "%8d", step)
			for _, s := range r.Series {
				if i < len(s.Ratios) {
					fmt.Fprintf(&b, "%24.3f", s.Ratios[i])
				}
			}
			b.WriteByte('\n')
		}
	}
	b.WriteString("paper: ratio stays ≥ ~0.95 through the failure phase and returns to 1 after step 2000\n")
	return b.String()
}
