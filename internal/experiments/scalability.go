package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/dps-overlay/dps/internal/conform"
	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/metrics"
)

// Fig3cdOptions parameterise the scalability experiment (Figures 3(c) and
// 3(d)): 1,000 initial nodes, one new subscribing node every JoinEvery
// steps, 10 events per 100 steps, 5,000 steps; the plots report the number
// of outgoing messages per event at the median (c) and most loaded (d)
// node, sampled per window.
type Fig3cdOptions struct {
	Seed       int64
	Nodes      int
	Steps      int
	JoinEvery  int
	EventEvery int
	Window     int
	Configs    []conform.ConfigSpec
	// Parallelism is the engine worker count: 0/1 sequential, W > 1
	// parallel on W workers, negative one worker per CPU. Metrics are
	// bit-identical across worker counts for a given seed.
	Parallelism int
}

// DefaultFig3cdOptions returns the paper-scale parameters.
func DefaultFig3cdOptions() Fig3cdOptions {
	return Fig3cdOptions{
		Seed:       1,
		Nodes:      1000,
		Steps:      5000,
		JoinEvery:  2,
		EventEvery: 10,
		Window:     100,
		Configs: []conform.ConfigSpec{
			{Name: "leader root", Traversal: core.RootBased, Comm: core.LeaderBased},
			{Name: "epidemic root", Traversal: core.RootBased, Comm: core.Epidemic},
			{Name: "epidemic root k = 2", Traversal: core.RootBased, Comm: core.Epidemic, Fanout: 2, CrossFanout: 2},
		},
	}
}

// Fig3cdSeries is one configuration's time series.
type Fig3cdSeries struct {
	Config string
	Steps  []int64
	// MedianPerEvent and MaxPerEvent are outgoing event-class messages per
	// published event, over the window, at the median and max node.
	MedianPerEvent []float64
	MaxPerEvent    []float64
	// Population tracks system growth.
	Population []int
}

// Fig3cdResult bundles the curves for Figures 3(c) (median) and 3(d)
// (max).
type Fig3cdResult struct {
	Series []Fig3cdSeries
	Opts   Fig3cdOptions
}

// RunFig3cd reproduces Figures 3(c) and 3(d) in one pass per
// configuration.
func RunFig3cd(opts Fig3cdOptions) (*Fig3cdResult, error) {
	if opts.Nodes <= 0 || opts.Steps <= 0 || opts.Window <= 0 {
		return nil, fmt.Errorf("experiments: fig3cd needs positive sizes")
	}
	res := &Fig3cdResult{Opts: opts}
	for _, spec := range opts.Configs {
		e, err := settledEngine(spec, opts.Seed, opts.Parallelism, opts.Nodes, 1, nil)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(opts.Seed ^ 0xc0de))
		series := Fig3cdSeries{Config: spec.Name}
		snap := e.Traffic()
		eventsInWindow := 0
		for step := 1; step <= opts.Steps; step++ {
			if step%opts.EventEvery == 0 {
				e.PublishTracked(rng)
				eventsInWindow++
			}
			if step%opts.JoinEvery == 0 {
				e.Join()
			}
			e.Run(1)
			if step%opts.Window == 0 {
				deltas := e.TrafficSince(snap)
				ids := e.AliveIDs()
				outs := metrics.Collect(ids, deltas, func(x metrics.Counts) int64 {
					return x.OutOf(metrics.KindEvent)
				})
				div := float64(eventsInWindow)
				if div == 0 {
					div = 1
				}
				series.Steps = append(series.Steps, int64(step))
				series.MedianPerEvent = append(series.MedianPerEvent, metrics.Median(outs)/div)
				series.MaxPerEvent = append(series.MaxPerEvent, float64(metrics.Max(outs))/div)
				series.Population = append(series.Population, len(ids))
				snap = e.Traffic()
				eventsInWindow = 0
			}
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// Render prints both figures' series.
func (r *Fig3cdResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figures 3(c)/(d) — Scalability: outgoing messages per event (median / max node)\n")
	fmt.Fprintf(&b, "(start %d nodes, +1 node per %d steps, %d steps, seed %d)\n",
		r.Opts.Nodes, r.Opts.JoinEvery, r.Opts.Steps, r.Opts.Seed)
	fmt.Fprintf(&b, "%8s %6s", "step", "nodes")
	for _, s := range r.Series {
		fmt.Fprintf(&b, " %12s", truncName(s.Config, 9)+"-med")
		fmt.Fprintf(&b, " %12s", truncName(s.Config, 9)+"-max")
	}
	b.WriteByte('\n')
	if len(r.Series) > 0 {
		for i, step := range r.Series[0].Steps {
			fmt.Fprintf(&b, "%8d %6d", step, r.Series[0].Population[i])
			for _, s := range r.Series {
				fmt.Fprintf(&b, " %12.2f %12.2f", s.MedianPerEvent[i], s.MaxPerEvent[i])
			}
			b.WriteByte('\n')
		}
	}
	b.WriteString("paper: median stays flat as the system grows; only the leader-based max grows (group-size effect)\n")
	return b.String()
}

func truncName(s string, n int) string {
	s = strings.ReplaceAll(s, " ", "")
	if len(s) > n {
		return s[:n]
	}
	return s
}
