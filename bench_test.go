package dps

// One benchmark per table and figure of the paper's evaluation, at a scale
// a laptop sustains inside `go test -bench`. Paper-scale runs live behind
// cmd/dps-bench. Custom metrics expose the quantity each figure plots, so
// `go test -bench=. -benchmem` regenerates the whole evaluation in
// miniature.

import (
	"testing"

	"github.com/dps-overlay/dps/internal/conform"
	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/experiments"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/semtree"
	"github.com/dps-overlay/dps/internal/workload"
)

// BenchmarkTable1 regenerates the false-positive table (oracle fast path).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(experiments.Table1Options{
			Seed: int64(i + 1), Nodes: 1500, Events: 800,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				b.ReportMetric(row.ContactedPct, row.Workload+"-contacted-%")
			}
		}
	}
}

// table1ProtocolOptions is BenchmarkTable1Protocol's run at one seed.
func table1ProtocolOptions(seed int64) experiments.Table1Options {
	return experiments.Table1Options{Seed: seed, Nodes: 250, Events: 150, UseProtocol: true}
}

// BenchmarkTable1Protocol regenerates Table 1 through the full
// message-level protocol.
func BenchmarkTable1Protocol(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable1(table1ProtocolOptions(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1ProtocolParallel runs the identical measurement to
// BenchmarkTable1Protocol on the sharded parallel executor with one
// worker per CPU. The two benchmarks produce bit-identical protocol
// metrics; their ns/op ratio is the parallel engine's speedup on this
// machine (≈1× on a single core, approaching the core count once steps
// carry enough work — see docs/ARCHITECTURE.md).
func BenchmarkTable1ProtocolParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := table1ProtocolOptions(int64(i + 1))
		opts.Parallelism = -1
		if _, err := experiments.RunTable1(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScale runs the 50k-node scale preset in miniature (2,000
// nodes, parallel executor) and reports its throughput metric.
func BenchmarkScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunScale(experiments.ScaleOptions{
			Seed: int64(i + 1), Nodes: 2000, SubsPerNode: 1,
			Events: 40, EventEvery: 10, Parallelism: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.StepsPerSec, "steps/s")
			b.ReportMetric(res.DeliveryRatio, "delivery-ratio")
		}
	}
}

// fig3aOptions is BenchmarkFig3a's run at one seed: two representative
// configurations and two failure rates.
func fig3aOptions(seed int64) experiments.Fig3aOptions {
	return experiments.Fig3aOptions{
		Seed:         seed,
		Nodes:        200,
		Steps:        800,
		SubsPerNode:  2,
		EventEvery:   10,
		FailureProbs: []float64{0.02, 0.10},
		Configs: []conform.ConfigSpec{
			{Name: "leader root", Traversal: core.RootBased, Comm: core.LeaderBased},
			{Name: "epidemic root k = 2", Traversal: core.RootBased, Comm: core.Epidemic, Fanout: 2, CrossFanout: 2},
		},
		SettleTail: 80,
	}
}

// BenchmarkFig3a regenerates the dependability curve of fig3aOptions.
func BenchmarkFig3a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3a(fig3aOptions(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range res.Series {
				b.ReportMetric(s.Ratios[len(s.Ratios)-1], shortName(s.Config)+"-ratio@p0.10")
			}
		}
	}
}

// BenchmarkFig3b regenerates the three-phase recovery curve.
func BenchmarkFig3b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3b(experiments.Fig3bOptions{
			Seed:        int64(i + 1),
			Nodes:       200,
			Steps:       900,
			SubsPerNode: 2,
			EventEvery:  10,
			FailFrom:    300,
			FailTo:      600,
			KillEvery:   8,
			Window:      100,
			Configs: []conform.ConfigSpec{
				{Name: "leader generic", Traversal: core.Generic, Comm: core.LeaderBased},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			s := res.Series[0]
			b.ReportMetric(s.Ratios[len(s.Ratios)-1], "recovered-ratio")
		}
	}
}

// BenchmarkFig3cd regenerates the scalability series (median/max outgoing
// messages per event under system growth).
func BenchmarkFig3cd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3cd(experiments.Fig3cdOptions{
			Seed:       int64(i + 1),
			Nodes:      150,
			Steps:      600,
			JoinEvery:  4,
			EventEvery: 10,
			Window:     100,
			Configs: []conform.ConfigSpec{
				{Name: "leader root", Traversal: core.RootBased, Comm: core.LeaderBased},
				{Name: "epidemic root", Traversal: core.RootBased, Comm: core.Epidemic},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range res.Series {
				last := len(s.Steps) - 1
				b.ReportMetric(s.MedianPerEvent[last], shortName(s.Config)+"-median-out/event")
				b.ReportMetric(s.MaxPerEvent[last], shortName(s.Config)+"-max-out/event")
			}
		}
	}
}

// BenchmarkFig3ef regenerates the leader-vs-epidemic load comparison.
func BenchmarkFig3ef(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLoadComparison("fig3ef", experiments.LoadOptions{
			Seed:       int64(i + 1),
			Nodes:      150,
			Steps:      600,
			SubEvery:   150,
			EventEvery: 10,
			Window:     100,
			Configs: []conform.ConfigSpec{
				{Name: "leader", Traversal: core.RootBased, Comm: core.LeaderBased},
				{Name: "epidemic", Traversal: core.RootBased, Comm: core.Epidemic},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range res.Series {
				last := len(s.SubsPerNode) - 1
				b.ReportMetric(s.MaxOut[last], s.Config+"-max-out/window")
				b.ReportMetric(s.MedianOut[last], s.Config+"-median-out/window")
			}
		}
	}
}

// BenchmarkFig3g regenerates the root-vs-generic load comparison.
func BenchmarkFig3g(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLoadComparison("fig3g", experiments.LoadOptions{
			Seed:       int64(i + 1),
			Nodes:      150,
			Steps:      600,
			SubEvery:   150,
			EventEvery: 10,
			Window:     100,
			Configs: []conform.ConfigSpec{
				{Name: "root", Traversal: core.RootBased, Comm: core.LeaderBased},
				{Name: "generic", Traversal: core.Generic, Comm: core.LeaderBased},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range res.Series {
				last := len(s.SubsPerNode) - 1
				b.ReportMetric(s.MaxIn[last], s.Config+"-max-in/window")
			}
		}
	}
}

// BenchmarkAnalysis evaluates the §5.1 closed forms.
func BenchmarkAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAnalysis(experiments.DefaultAnalysisOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the hot paths -------------------------------------

// BenchmarkFilterKey measures the canonical-key identity of predicates
// and attribute filters — the group lookup key of every routing hop. Keys
// are memoized at construction, so steady-state Key calls are field reads
// and must not allocate.
func BenchmarkFilterKey(b *testing.B) {
	af, err := filter.NewAttrFilter("a", []filter.Predicate{
		filter.Gt("a", 2), filter.Lt("a", 2000),
	})
	if err != nil {
		b.Fatal(err)
	}
	p := filter.Prefix("s", "ab")
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += len(af.Key()) + len(p.Key())
	}
	if sink == 0 {
		b.Fatal("keys must be non-empty")
	}
}

// BenchmarkEventMatch measures raw subscription matching.
func BenchmarkEventMatch(b *testing.B) {
	sub, _ := filter.ParseSubscription("a>2 && a<2000 && s=ab*")
	ev, _ := filter.ParseEvent("a=500, s=abc, extra=7")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sub.Matches(ev) {
			b.Fatal("must match")
		}
	}
}

// BenchmarkOracleMatch measures one event's walk through a 2k-subscriber
// forest — the per-event cost of Table 1's fast path.
func BenchmarkOracleMatch(b *testing.B) {
	gen := workload.MustGenerator(workload.Workload2(), 1)
	forest := semtree.New()
	for i := 0; i < 2000; i++ {
		if _, err := forest.Subscribe(semtree.MemberID(i+1), gen.Subscription()); err != nil {
			b.Fatal(err)
		}
	}
	events := make([]filter.Event, 256)
	for i := range events {
		events[i] = gen.Event()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forest.Match(events[i%len(events)])
	}
}

// BenchmarkOracleSubscribe measures placement-walk insertion cost.
func BenchmarkOracleSubscribe(b *testing.B) {
	gen := workload.MustGenerator(workload.Workload2(), 1)
	subs := make([]filter.Subscription, 4096)
	for i := range subs {
		subs[i] = gen.Subscription()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4096 == 0 {
			b.StopTimer()
			forest := semtree.New()
			b.StartTimer()
			benchForest = forest
		}
		if _, err := benchForest.Subscribe(semtree.MemberID(i+1), subs[i%len(subs)]); err != nil {
			b.Fatal(err)
		}
	}
}

var benchForest *semtree.Forest

func shortName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r != ' ' {
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkAblations measures the design-choice studies at reduced scale.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblations(experiments.AblationOptions{
			Seed: int64(i + 1), Nodes: 120, Steps: 450,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				if row.Metric == "delivery-ratio" || row.Metric == "post-churn-delivery" {
					b.ReportMetric(row.Value, shortName(row.Study+"/"+row.Variant))
				}
			}
		}
	}
}

// BenchmarkLatency measures publish→notify latency for both traversals,
// validating §6's root-is-faster conclusion.
func BenchmarkLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLatency(experiments.LatencyOptions{
			Seed: int64(i + 1), Nodes: 150, SubsPerNode: 2, Events: 60,
			Configs: experiments.DefaultLatencyOptions().Configs,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				b.ReportMetric(row.MeanSteps, row.Config+"-mean-steps")
			}
		}
	}
}
