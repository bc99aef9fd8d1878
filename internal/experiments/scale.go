package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/dps-overlay/dps/internal/conform"
	"github.com/dps-overlay/dps/internal/workload"
)

// The scale preset goes beyond the paper's evaluation (§5.2 tops out at
// 10,000 subscriptions): it runs the full message-level protocol at
// 50k–100k nodes on the parallel executor, the population range at which
// related overlays (hierarchical semantic overlays, supervised
// self-stabilizing pub/sub) report their results. Protocol metrics stay
// bit-identical across worker counts; the wall-clock columns are the
// point — they turn "how big can a run be" into a core-count question.

// ScaleOptions parameterise the large-scale run.
type ScaleOptions struct {
	Seed int64
	// Nodes is the subscriber population (50_000 by default; the "100k"
	// preset doubles it).
	Nodes int
	// SubsPerNode is the number of subscriptions each node holds.
	SubsPerNode int
	// Events is the number of events published in the measured phase, one
	// per EventEvery steps.
	Events     int
	EventEvery int
	// Parallelism is the engine worker count: 0/1 sequential, W > 1
	// parallel on W workers, negative one worker per CPU. Metrics are
	// bit-identical across worker counts for a given seed.
	Parallelism int
}

// DefaultScaleOptions returns the 50k-node preset. The event rate is
// the paper's own (10 events per 100 steps): the protocol's delivery
// ratio is calibrated against it, and pushing events faster mostly
// measures groups still converging between publications.
func DefaultScaleOptions() ScaleOptions {
	return ScaleOptions{
		Seed:  1,
		Nodes: 50_000,
		// Two subscriptions per node: covering is node-local, so each
		// node needs more than one filter for it to compact anything.
		SubsPerNode: 2,
		Events:      100,
		EventEvery:  10,
		Parallelism: -1, // all cores: this preset exists to be parallel
	}
}

// ScaleResult reports one large-scale run. The protocol columns
// (delivery, contacted, forest shape) are deterministic in the seed; the
// wall-clock columns depend on the machine and worker count.
type ScaleResult struct {
	Opts    ScaleOptions
	Workers int // resolved executor width

	Trees, Groups int
	// DeliveryRatio is the fraction of (event, live matching subscriber)
	// pairs notified.
	DeliveryRatio float64
	// ContactedPct is the mean percentage of the population an event
	// touches — Table 1's headline metric at 5–10× the paper's scale.
	ContactedPct float64

	// RoutingBytesPerNode is the mean routing-state footprint (group
	// labels, views, tree edges, covering table) per live node after the
	// build phase settles — the state covering compacts.
	RoutingBytesPerNode float64 `json:"routing_bytes_per_node"`
	// ForwardedMsgs counts inter-group tree forwards (core.TreeForwards)
	// during the measured phase — the fan-out-suppression metric: fewer
	// routed groups mean fewer tree hops per published event.
	ForwardedMsgs int64 `json:"forwarded_msgs"`

	BuildSteps, RunSteps int
	BuildWall, RunWall   time.Duration
	// StepsPerSec is the measured-phase throughput.
	StepsPerSec float64
}

// RunScale builds a Nodes-strong overlay and drives the measured phase
// through the full protocol on the configured executor.
func RunScale(opts ScaleOptions) (*ScaleResult, error) {
	if opts.Nodes <= 0 || opts.Events <= 0 {
		return nil, fmt.Errorf("experiments: scale needs positive sizes")
	}
	if opts.SubsPerNode <= 0 {
		opts.SubsPerNode = 1
	}
	if opts.EventEvery <= 0 {
		opts.EventEvery = 10
	}
	// Subscriptions fed per build step: Nodes/100 (min 50), so the build
	// phase stays a few hundred steps.
	batch := opts.Nodes / 100
	if batch < 50 {
		batch = 50
	}
	// The paper's default variant: root traversal, leader communication.
	gen := workload.MustGenerator(workload.Workload2(), opts.Seed)
	e := conform.NewSimEngine(PaperConfigs()[0], opts.Seed, opts.Parallelism, gen, opts.SubsPerNode, nil)

	res := &ScaleResult{Opts: opts, Workers: e.Workers()}
	start := time.Now()
	stepsBefore := e.Now()
	if err := e.Bootstrap(opts.Nodes, batch); err != nil {
		return nil, err
	}
	// Bootstrap's settle tail is sized for paper-scale (≤10k)
	// populations; larger forests need proportionally longer for late
	// joins, adoptions and co-leader announcements to quiesce before the
	// measured phase starts.
	e.Run(int64(opts.Nodes / 100))
	res.BuildWall = time.Since(start)
	res.BuildSteps = int(e.Now() - stepsBefore)
	res.Trees = e.Oracle().Trees()
	res.Groups = e.Oracle().Groups()
	res.RoutingBytesPerNode = e.RoutingBytesPerNode()

	rng := rand.New(rand.NewSource(opts.Seed ^ 0x5ca1e))
	start = time.Now()
	stepsBefore = e.Now()
	forwardsBefore := e.TreeForwards()
	for i := 0; i < opts.Events; i++ {
		e.PublishTracked(rng)
		e.Run(int64(opts.EventEvery))
	}
	e.Run(100) // drain in-flight deliveries
	res.RunWall = time.Since(start)
	res.RunSteps = int(e.Now() - stepsBefore)
	res.ForwardedMsgs = e.TreeForwards() - forwardsBefore
	if secs := res.RunWall.Seconds(); secs > 0 {
		res.StepsPerSec = float64(res.RunSteps) / secs
	}

	res.DeliveryRatio = e.Ratio()
	res.ContactedPct = float64(e.ContactedPairs()) / (float64(opts.Events) * float64(opts.Nodes)) * 100
	return res, nil
}

// Render prints the run summary.
func (r *ScaleResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scale — full protocol at %d nodes (%d workers, seed %d)\n",
		r.Opts.Nodes, r.Workers, r.Opts.Seed)
	fmt.Fprintf(&b, "forest            %d trees, %d groups\n", r.Trees, r.Groups)
	fmt.Fprintf(&b, "delivery ratio    %.4f\n", r.DeliveryRatio)
	fmt.Fprintf(&b, "contacted         %.2f%% of population per event\n", r.ContactedPct)
	fmt.Fprintf(&b, "routing state     %.1f bytes/node\n", r.RoutingBytesPerNode)
	fmt.Fprintf(&b, "tree forwards     %d in the measured phase\n", r.ForwardedMsgs)
	fmt.Fprintf(&b, "build             %d steps in %v\n", r.BuildSteps, r.BuildWall.Round(time.Millisecond))
	fmt.Fprintf(&b, "measured          %d steps in %v (%.1f steps/s)\n",
		r.RunSteps, r.RunWall.Round(time.Millisecond), r.StepsPerSec)
	b.WriteString("(protocol columns are seed-deterministic at any worker count; wall-clock scales with cores)\n")
	return b.String()
}
