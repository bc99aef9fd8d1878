// Package experiments reproduces every table and figure of the paper's
// evaluation (§5.2): Table 1 (false positives under three workloads),
// Figure 3(a) dependability, 3(b) recovery, 3(c)/(d) scalability,
// 3(e)/(f) leader vs epidemic and 3(g) root vs generic load comparisons,
// plus the §5.1 analytical comparison. Each experiment returns a typed
// result with a Render method that prints the same rows/series the paper
// reports; cmd/dps-bench is the CLI front end and bench_test.go wraps each
// at reduced scale.
//
// Every message-level experiment runs on conform.Engine over the cycle
// simulator (conform.NewSimEngine) — the engine the chaos and
// conformance suites judge — and reads its figures from it: the delivery
// recorder's ratios and latencies, the traffic counters, the contacted
// sets, the tree-forward sum and the routing-state size.
package experiments

import (
	"math/rand"

	"github.com/dps-overlay/dps/internal/conform"
	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/workload"
)

// PaperConfigs returns the six configurations of Figure 3(a).
func PaperConfigs() []conform.ConfigSpec {
	return []conform.ConfigSpec{
		{Name: "leader root", Traversal: core.RootBased, Comm: core.LeaderBased},
		{Name: "leader generic", Traversal: core.Generic, Comm: core.LeaderBased},
		{Name: "epidemic root", Traversal: core.RootBased, Comm: core.Epidemic},
		{Name: "epidemic generic", Traversal: core.Generic, Comm: core.Epidemic},
		{Name: "epidemic root k = 2", Traversal: core.RootBased, Comm: core.Epidemic, Fanout: 2, CrossFanout: 2},
		{Name: "epidemic generic k = 2", Traversal: core.Generic, Comm: core.Epidemic, Fanout: 2, CrossFanout: 2},
	}
}

// killDrawn crashes the live node an rng draw picks; the oracle keeps
// its subscriptions (expected sets filter by liveness at publish time).
// The caller guarantees a live node.
func killDrawn(e *conform.Engine, rng *rand.Rand) {
	ids := e.AliveIDs()
	e.Kill(ids[rng.Int63()%int64(len(ids))])
}

// settledEngine builds a cycle engine running spec (adjusted by mutate,
// nil for none), seeded by seed and stepping on workers, and bootstraps
// nodes Workload 2 subscribers of perNode subscriptions each, 25 per
// step. Later joins and events draw from the same generator.
func settledEngine(spec conform.ConfigSpec, seed int64, workers, nodes, perNode int, mutate func(*core.Config)) (*conform.Engine, error) {
	e := conform.NewSimEngine(spec, seed, workers, workload.MustGenerator(workload.Workload2(), seed), perNode, mutate)
	return e, e.Bootstrap(nodes, 25)
}
