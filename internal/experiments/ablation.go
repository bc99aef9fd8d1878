package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/dps-overlay/dps/internal/conform"
	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/metrics"
	"github.com/dps-overlay/dps/internal/semtree"
	"github.com/dps-overlay/dps/internal/workload"
)

// Ablations isolate the design choices DESIGN.md calls out, quantifying
// what each buys:
//
//   - zone quantisation (Workload 2's shared zones) — group population vs
//     singleton groups;
//   - gossip rounds (bimodal-multicast re-offering) — epidemic delivery;
//   - view depth K (multi-level contacts) — recovery under churn.

// AblationRow is one measured variant.
type AblationRow struct {
	Study   string
	Variant string
	Metric  string
	Value   float64
}

// AblationResult bundles all rows.
type AblationResult struct {
	Rows []AblationRow
}

// AblationOptions scales the studies.
type AblationOptions struct {
	Seed  int64
	Nodes int
	Steps int
	// Parallelism is the engine worker count: 0/1 sequential, W > 1
	// parallel on W workers, negative one worker per CPU. Metrics are
	// bit-identical across worker counts for a given seed.
	Parallelism int
}

// DefaultAblationOptions returns a laptop-scale setting.
func DefaultAblationOptions() AblationOptions {
	return AblationOptions{Seed: 1, Nodes: 300, Steps: 900}
}

// RunAblations measures every study.
func RunAblations(opts AblationOptions) (*AblationResult, error) {
	if opts.Nodes <= 0 || opts.Steps <= 0 {
		return nil, fmt.Errorf("experiments: ablations need positive sizes")
	}
	res := &AblationResult{}
	res.Rows = append(res.Rows, ablateQuantisation(opts)...)
	rows, err := ablateGossipRounds(opts)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, rows...)
	rows, err = ablateViewDepth(opts)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, rows...)
	return res, nil
}

// ablateQuantisation compares the semantic forest Workload 2 builds with
// and without grid-snapped zones.
func ablateQuantisation(opts AblationOptions) []AblationRow {
	build := func(quantum int64) (groups int, largest int) {
		spec := workload.Workload2()
		for i := range spec.Attrs {
			spec.Attrs[i].Quantum = quantum
		}
		gen := workload.MustGenerator(spec, opts.Seed)
		forest := semtree.New()
		for i := 0; i < opts.Nodes; i++ {
			if _, err := forest.Subscribe(semtree.MemberID(i+1), gen.Subscription()); err != nil {
				panic(err) // preset workloads cannot produce invalid subs
			}
		}
		for _, attr := range forest.Attrs() {
			forest.Tree(attr).Walk(func(g *semtree.Group) bool {
				if g.Size() > largest {
					largest = g.Size()
				}
				return true
			})
		}
		return forest.Groups(), largest
	}
	gQ, lQ := build(50)
	g1, l1 := build(0)
	return []AblationRow{
		{"zone-quantisation", "quantum=50", "groups", float64(gQ)},
		{"zone-quantisation", "quantum=50", "largest-group", float64(lQ)},
		{"zone-quantisation", "none", "groups", float64(g1)},
		{"zone-quantisation", "none", "largest-group", float64(l1)},
	}
}

// ablateGossipRounds measures epidemic delivery with single-shot gossip vs
// bounded re-offering, calm network.
func ablateGossipRounds(opts AblationOptions) ([]AblationRow, error) {
	var rows []AblationRow
	for _, rounds := range []int{1, 3} {
		rounds := rounds
		spec := conform.ConfigSpec{Name: "epidemic", Traversal: core.RootBased, Comm: core.Epidemic}
		e, err := settledEngine(spec, opts.Seed, opts.Parallelism, opts.Nodes, 2,
			func(cfg *core.Config) { cfg.GossipRounds = rounds })
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(opts.Seed ^ 77))
		for step := 1; step <= opts.Steps; step++ {
			if step%10 == 0 {
				e.PublishTracked(rng)
			}
			e.Run(1)
		}
		e.Run(60)
		rows = append(rows,
			AblationRow{"gossip-rounds", fmt.Sprintf("rounds=%d", rounds),
				"delivery-ratio", e.Ratio()},
			AblationRow{"gossip-rounds", fmt.Sprintf("rounds=%d", rounds),
				"event-msgs/node", avgEventMsgs(e)},
		)
	}
	return rows, nil
}

// ablateViewDepth measures post-churn recovery with K=1 vs K=3 contacts
// per adjacent group.
func ablateViewDepth(opts AblationOptions) ([]AblationRow, error) {
	var rows []AblationRow
	for _, k := range []int{1, 3} {
		k := k
		spec := conform.ConfigSpec{Name: "leader", Traversal: core.Generic, Comm: core.LeaderBased}
		e, err := settledEngine(spec, opts.Seed, opts.Parallelism, opts.Nodes, 2,
			func(cfg *core.Config) { cfg.K = k })
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(opts.Seed ^ 99))
		third := opts.Steps / 3
		for step := 1; step <= opts.Steps; step++ {
			if step%10 == 0 {
				e.PublishTracked(rng)
			}
			if step > third && step <= 2*third && step%4 == 0 && e.AliveCount() > 2 {
				killDrawn(e, rng)
			}
			e.Run(1)
		}
		bound := e.Now()
		e.Run(60)
		// Fresh delivery after the churn phase plus healing time.
		rows = append(rows, AblationRow{
			"view-depth", fmt.Sprintf("K=%d", k), "post-churn-delivery",
			e.WindowRatio(bound-int64(third)/2, bound),
		})
	}
	return rows, nil
}

func avgEventMsgs(e *conform.Engine) float64 {
	ids := e.AliveIDs()
	if len(ids) == 0 {
		return 0
	}
	traffic := e.Traffic()
	var total int64
	for _, id := range ids {
		total += traffic[int64(id)].OutOf(metrics.KindEvent)
	}
	return float64(total) / float64(len(ids))
}

// Render prints the ablation table.
func (r *AblationResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablations — what each design choice buys\n")
	fmt.Fprintf(&b, "%-20s %-12s %-22s %10s\n", "study", "variant", "metric", "value")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-20s %-12s %-22s %10.3f\n", row.Study, row.Variant, row.Metric, row.Value)
	}
	return b.String()
}
