package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/semtree"
	"github.com/dps-overlay/dps/internal/workload"
)

// Table1Options parameterise the false-positive experiment. The paper
// issues 10,000 subscriptions (one per node) and then 10,000 events, with
// no failures or message losses, noting that the sample size does not
// influence the results.
type Table1Options struct {
	Seed   int64
	Nodes  int
	Events int
	// UseProtocol routes every event through the full message-level
	// protocol (root-based, leader communication — the paper notes the
	// choice does not influence this experiment) instead of the oracle
	// fast path. The two are equivalent without failures — a property the
	// core test suite asserts — but the oracle is orders of magnitude
	// faster at paper scale.
	UseProtocol bool
	// Parallelism is the engine worker count: 0/1 sequential, W > 1
	// parallel on W workers, negative one worker per CPU. Metrics are
	// bit-identical across worker counts for a given seed.
	Parallelism int
}

// DefaultTable1Options returns the paper-scale parameters.
func DefaultTable1Options() Table1Options {
	return Table1Options{Seed: 1, Nodes: 10000, Events: 10000}
}

// Table1Row is one line of Table 1.
type Table1Row struct {
	Workload string
	// Percentages over the node population, averaged over events.
	MatchingPct      float64
	ContactedPct     float64
	FalsePositivePct float64
	// SavingsPct is the headline claim: visited nodes saved vs broadcast.
	SavingsPct float64
	// Structure diagnostics (not in the paper's table, useful context).
	Trees  int
	Groups int
}

// Table1Result bundles the three workload rows.
type Table1Result struct {
	Rows []Table1Row
	Opts Table1Options
}

// RunTable1 reproduces Table 1 for the three synthetic workloads.
func RunTable1(opts Table1Options) (*Table1Result, error) {
	if opts.Nodes <= 0 || opts.Events <= 0 {
		return nil, fmt.Errorf("experiments: table1 needs positive sizes")
	}
	res := &Table1Result{Opts: opts}
	for _, spec := range workload.Presets() {
		gen, err := workload.NewGenerator(spec, opts.Seed)
		if err != nil {
			return nil, err
		}
		var row Table1Row
		if opts.UseProtocol {
			row, err = table1Protocol(spec.Name, gen, opts)
		} else {
			row, err = table1Oracle(spec.Name, gen, opts)
		}
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// table1Oracle builds the forest centrally and walks each event through it
// — valid because the experiment excludes failures and losses.
func table1Oracle(name string, gen *workload.Generator, opts Table1Options) (Table1Row, error) {
	forest := semtree.New()
	for i := 0; i < opts.Nodes; i++ {
		if _, err := forest.Subscribe(semtree.MemberID(i+1), gen.Subscription()); err != nil {
			return Table1Row{}, err
		}
	}
	var contacted, matching int64
	for e := 0; e < opts.Events; e++ {
		r := forest.Match(gen.Event())
		contacted += int64(len(r.Contacted))
		matching += int64(len(r.Delivered))
	}
	return table1Row(name, contacted, matching, opts,
		forest.Trees(), forest.Groups()), nil
}

// table1Protocol runs the same measurement through the full DPS protocol
// on the cycle engine.
func table1Protocol(name string, gen *workload.Generator, opts Table1Options) (Table1Row, error) {
	c := NewClusterParallel(ConfigSpec{
		Name:      "leader root",
		Traversal: core.RootBased,
		Comm:      core.LeaderBased,
	}, opts.Seed, opts.Parallelism)
	c.SubscribePopulation(opts.Nodes, 1, 50, gen)
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x7a17))
	events := make([]core.EventID, 0, opts.Events)
	evs := make(map[core.EventID]filter.Event, opts.Events)
	for e := 0; e < opts.Events; e++ {
		ev := gen.Event()
		id := c.PublishTracked(ev, rng.Int63())
		events = append(events, id)
		evs[id] = ev
		c.Engine.Step()
	}
	c.Engine.Run(100) // drain in-flight deliveries
	var contacted, matching int64
	for _, id := range events {
		contacted += int64(len(c.Contacted[id]))
		matching += int64(len(c.Oracle.MatchingMembers(evs[id])))
	}
	return table1Row(name, contacted, matching, opts,
		c.Oracle.Trees(), c.Oracle.Groups()), nil
}

func table1Row(name string, contacted, matching int64, opts Table1Options, trees, groups int) Table1Row {
	denom := float64(opts.Events) * float64(opts.Nodes) / 100
	row := Table1Row{
		Workload:     name,
		MatchingPct:  float64(matching) / denom,
		ContactedPct: float64(contacted) / denom,
		Trees:        trees,
		Groups:       groups,
	}
	row.FalsePositivePct = row.ContactedPct - row.MatchingPct
	row.SavingsPct = 100 - row.ContactedPct
	return row
}

// Render prints the paper-style table.
func (r *Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 — False positives (%d nodes, %d events, seed %d)\n",
		r.Opts.Nodes, r.Opts.Events, r.Opts.Seed)
	fmt.Fprintf(&b, "%-12s %10s %10s %14s %12s %7s %7s\n",
		"Workload", "Matching", "Contacted", "FalsePositive", "vsBroadcast", "Trees", "Groups")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %9.2f%% %9.2f%% %13.2f%% %11.2f%% %7d %7d\n",
			row.Workload, row.MatchingPct, row.ContactedPct,
			row.FalsePositivePct, row.SavingsPct, row.Trees, row.Groups)
	}
	b.WriteString("paper:       2.37/25.13/0.42% matching, 13.56/54.74/17.15% contacted, 11.19/29.61/16.73% false positives\n")
	return b.String()
}
