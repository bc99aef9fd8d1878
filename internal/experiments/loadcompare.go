package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/dps-overlay/dps/internal/conform"
	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/metrics"
	"github.com/dps-overlay/dps/internal/sim"
	"github.com/dps-overlay/dps/internal/workload"
)

// LoadOptions parameterise the load-comparison experiments of Figures
// 3(e)/(f) (leader vs epidemic) and 3(g) (root vs generic): 1,000 nodes,
// every node emitting one new subscription every SubEvery steps (so the
// per-node subscription count grows 0→Steps/SubEvery over the run) and 10
// events per 100 steps; incoming and outgoing messages — publications,
// subscriptions and overlay management together — are sampled on the
// median and most loaded node per window.
type LoadOptions struct {
	Seed       int64
	Nodes      int
	Steps      int
	SubEvery   int
	EventEvery int
	Window     int
	Configs    []conform.ConfigSpec
	// Parallelism is the engine worker count: 0/1 sequential, W > 1
	// parallel on W workers, negative one worker per CPU. Metrics are
	// bit-identical across worker counts for a given seed.
	Parallelism int
}

// DefaultFig3efOptions returns the paper-scale parameters for the
// leader-vs-epidemic comparison (root traversal).
func DefaultFig3efOptions() LoadOptions {
	return LoadOptions{
		Seed:       1,
		Nodes:      1000,
		Steps:      3000,
		SubEvery:   300,
		EventEvery: 10,
		Window:     100,
		Configs: []conform.ConfigSpec{
			{Name: "leader", Traversal: core.RootBased, Comm: core.LeaderBased},
			{Name: "epidemic", Traversal: core.RootBased, Comm: core.Epidemic},
		},
	}
}

// DefaultFig3gOptions returns the paper-scale parameters for the
// root-vs-generic comparison (leader communication).
func DefaultFig3gOptions() LoadOptions {
	return LoadOptions{
		Seed:       1,
		Nodes:      1000,
		Steps:      3000,
		SubEvery:   300,
		EventEvery: 10,
		Window:     100,
		Configs: []conform.ConfigSpec{
			{Name: "root", Traversal: core.RootBased, Comm: core.LeaderBased},
			{Name: "generic", Traversal: core.Generic, Comm: core.LeaderBased},
		},
	}
}

// LoadSeries is one configuration's sampled series.
type LoadSeries struct {
	Config      string
	SubsPerNode []float64 // x-axis: subscriptions held per node
	MaxIn       []float64 // per window
	MedianIn    []float64
	MaxOut      []float64
	MedianOut   []float64
}

// LoadResult bundles the series of one comparison.
type LoadResult struct {
	Title  string
	Series []LoadSeries
	Opts   LoadOptions
}

// RunLoadComparison runs the Figures 3(e)–(g) scenario for each
// configuration.
func RunLoadComparison(title string, opts LoadOptions) (*LoadResult, error) {
	if opts.Nodes <= 0 || opts.Steps <= 0 || opts.Window <= 0 || opts.SubEvery <= 0 {
		return nil, fmt.Errorf("experiments: load comparison needs positive sizes")
	}
	res := &LoadResult{Title: title, Opts: opts}
	for _, spec := range opts.Configs {
		gen := workload.MustGenerator(workload.Workload2(), opts.Seed)
		e := conform.NewSimEngine(spec, opts.Seed, opts.Parallelism, gen, 0, nil)
		// Nodes join with no subscriptions; they accumulate them during
		// the run.
		ids := make([]sim.NodeID, 0, opts.Nodes)
		for i := 0; i < opts.Nodes; i++ {
			ids = append(ids, e.AddNode())
		}
		e.Run(5)
		rng := rand.New(rand.NewSource(opts.Seed ^ 0xef9))
		series := LoadSeries{Config: spec.Name}
		snap := e.Traffic()
		for step := 1; step <= opts.Steps; step++ {
			// Staggered subscriptions: node i subscribes when step ≡ i
			// (mod SubEvery), i.e. each node once per SubEvery steps.
			for _, id := range ids {
				if int(id)%opts.SubEvery == step%opts.SubEvery {
					if err := e.Subscribe(id, gen.Subscription()); err != nil {
						return nil, err
					}
				}
			}
			if step%opts.EventEvery == 0 {
				e.PublishTracked(rng)
			}
			e.Run(1)
			if step%opts.Window == 0 {
				deltas := e.TrafficSince(snap)
				alive := e.AliveIDs()
				ins := metrics.Collect(alive, deltas, metrics.Counts.InTotal)
				outs := metrics.Collect(alive, deltas, metrics.Counts.OutTotal)
				series.SubsPerNode = append(series.SubsPerNode, float64(step)/float64(opts.SubEvery))
				series.MaxIn = append(series.MaxIn, float64(metrics.Max(ins)))
				series.MedianIn = append(series.MedianIn, metrics.Median(ins))
				series.MaxOut = append(series.MaxOut, float64(metrics.Max(outs)))
				series.MedianOut = append(series.MedianOut, metrics.Median(outs))
				snap = e.Traffic()
			}
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// Render prints the incoming (Fig. 3(e)-style) and outgoing (Fig.
// 3(f)-style) series for every configuration.
func (r *LoadResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Title)
	fmt.Fprintf(&b, "(%d nodes, 1 new subscription per node per %d steps, %d steps, window %d, seed %d)\n",
		r.Opts.Nodes, r.Opts.SubEvery, r.Opts.Steps, r.Opts.Window, r.Opts.Seed)
	fmt.Fprintf(&b, "%10s", "subs/node")
	for _, s := range r.Series {
		n := truncName(s.Config, 8)
		fmt.Fprintf(&b, " %11s %11s %11s %11s", n+"-maxIn", n+"-medIn", n+"-maxOut", n+"-medOut")
	}
	b.WriteByte('\n')
	if len(r.Series) > 0 {
		for i := range r.Series[0].SubsPerNode {
			fmt.Fprintf(&b, "%10.1f", r.Series[0].SubsPerNode[i])
			for _, s := range r.Series {
				fmt.Fprintf(&b, " %11.1f %11.1f %11.1f %11.1f",
					s.MaxIn[i], s.MedianIn[i], s.MaxOut[i], s.MedianOut[i])
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
