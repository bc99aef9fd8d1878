package experiments

import (
	"fmt"
	"strings"
	"testing"

	"github.com/dps-overlay/dps/internal/conform"
	"github.com/dps-overlay/dps/internal/core"
)

// Reduced-scale smoke tests of every experiment: the full-scale runs live
// behind cmd/dps-bench and bench_test.go; these assert the harness
// machinery and the headline *shapes* at a size CI can afford.

func TestTable1OracleShapes(t *testing.T) {
	res, err := RunTable1(Table1Options{Seed: 1, Nodes: 2000, Events: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.ContactedPct <= row.MatchingPct {
			t.Errorf("%s: contacted %.2f%% must exceed matching %.2f%%",
				row.Workload, row.ContactedPct, row.MatchingPct)
		}
		if row.SavingsPct < 40 {
			t.Errorf("%s: savings vs broadcast %.2f%%, paper claims ≥45%%",
				row.Workload, row.SavingsPct)
		}
		if row.FalsePositivePct > 35 {
			t.Errorf("%s: false positives %.2f%% too high", row.Workload, row.FalsePositivePct)
		}
	}
	// Workload ordering from the paper: W2 has the most matches, W3 the
	// fewest.
	if !(res.Rows[1].MatchingPct > res.Rows[0].MatchingPct &&
		res.Rows[0].MatchingPct > res.Rows[2].MatchingPct) {
		t.Errorf("matching order wrong: %v", res.Rows)
	}
	out := res.Render()
	for _, want := range []string{"workload1", "workload2", "workload3", "Contacted"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTable1ProtocolAgreesWithOracle(t *testing.T) {
	oracle, err := RunTable1(Table1Options{Seed: 3, Nodes: 150, Events: 120})
	if err != nil {
		t.Fatal(err)
	}
	proto, err := RunTable1(Table1Options{Seed: 3, Nodes: 150, Events: 120, UseProtocol: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range oracle.Rows {
		o, p := oracle.Rows[i], proto.Rows[i]
		if diff := p.ContactedPct - o.ContactedPct; diff < -3 || diff > 3 {
			t.Errorf("%s: protocol contacted %.2f%% vs oracle %.2f%%",
				o.Workload, p.ContactedPct, o.ContactedPct)
		}
		if diff := p.MatchingPct - o.MatchingPct; diff < -0.5 || diff > 0.5 {
			t.Errorf("%s: protocol matching %.2f%% vs oracle %.2f%%",
				o.Workload, p.MatchingPct, o.MatchingPct)
		}
	}
}

func TestTable1Validation(t *testing.T) {
	if _, err := RunTable1(Table1Options{}); err == nil {
		t.Error("zero sizes accepted")
	}
}

func smallConfigs() []conform.ConfigSpec {
	return []conform.ConfigSpec{
		{Name: "leader root", Traversal: core.RootBased, Comm: core.LeaderBased},
		{Name: "epidemic root k = 2", Traversal: core.RootBased, Comm: core.Epidemic, Fanout: 2, CrossFanout: 2},
	}
}

func TestFig3aSmall(t *testing.T) {
	opts := Fig3aOptions{
		Seed:         1,
		Nodes:        120,
		Steps:        500,
		SubsPerNode:  2,
		EventEvery:   10,
		FailureProbs: []float64{0.02, 0.10},
		Configs:      smallConfigs(),
		SettleTail:   60,
	}
	res, err := RunFig3a(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d", len(res.Series))
	}
	for _, s := range res.Series {
		for i, ratio := range s.Ratios {
			if ratio < 0.5 || ratio > 1.0001 {
				t.Errorf("%s p=%.2f: ratio %.3f out of plausible range",
					s.Config, s.Probs[i], ratio)
			}
		}
		// Survivor fractions must reflect the kill schedule.
		if s.Survivors[0] <= s.Survivors[len(s.Survivors)-1] {
			t.Errorf("%s: survivors should shrink with p: %v", s.Config, s.Survivors)
		}
	}
	if out := res.Render(); !strings.Contains(out, "Dependability") {
		t.Error("render missing title")
	}
}

func TestFig3bSmall(t *testing.T) {
	opts := Fig3bOptions{
		Seed:        1,
		Nodes:       100,
		Steps:       700,
		SubsPerNode: 2,
		EventEvery:  10,
		FailFrom:    200,
		FailTo:      400,
		KillEvery:   10, // 20% of the population — the paper-relative rate
		Window:      100,
		Configs:     smallConfigs()[:1],
	}
	res, err := RunFig3b(opts)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Series[0]
	if len(s.Ratios) != opts.Steps/opts.Window {
		t.Fatalf("windows = %d, want %d", len(s.Ratios), opts.Steps/opts.Window)
	}
	// Calm first window should deliver essentially everything.
	if s.Ratios[0] < 0.95 {
		t.Errorf("pre-failure ratio %.3f too low", s.Ratios[0])
	}
	// Recovery: the final window should be back near 1.
	if last := s.Ratios[len(s.Ratios)-1]; last < 0.85 {
		t.Errorf("post-failure ratio %.3f did not recover", last)
	}
	if out := res.Render(); !strings.Contains(out, "Recovery") {
		t.Error("render missing title")
	}
}

func TestFig3cdSmall(t *testing.T) {
	opts := Fig3cdOptions{
		Seed:       1,
		Nodes:      80,
		Steps:      400,
		JoinEvery:  4,
		EventEvery: 10,
		Window:     100,
		Configs:    smallConfigs(),
	}
	res, err := RunFig3cd(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		if len(s.Steps) != opts.Steps/opts.Window {
			t.Fatalf("%s: windows = %d", s.Config, len(s.Steps))
		}
		last := len(s.Population) - 1
		if s.Population[last] <= s.Population[0] {
			t.Errorf("%s: population did not grow: %v", s.Config, s.Population)
		}
		for i := range s.Steps {
			if s.MaxPerEvent[i] < s.MedianPerEvent[i] {
				t.Errorf("%s: max %.2f below median %.2f", s.Config, s.MaxPerEvent[i], s.MedianPerEvent[i])
			}
		}
	}
	if out := res.Render(); !strings.Contains(out, "Scalability") {
		t.Error("render missing title")
	}
}

func TestLoadComparisonSmall(t *testing.T) {
	opts := LoadOptions{
		Seed:       1,
		Nodes:      60,
		Steps:      400,
		SubEvery:   100,
		EventEvery: 10,
		Window:     100,
		Configs: []conform.ConfigSpec{
			{Name: "leader", Traversal: core.RootBased, Comm: core.LeaderBased},
			{Name: "epidemic", Traversal: core.RootBased, Comm: core.Epidemic},
		},
	}
	res, err := RunLoadComparison("Figure 3(e)/(f) small", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d", len(res.Series))
	}
	leader, epidemic := res.Series[0], res.Series[1]
	lastL := len(leader.SubsPerNode) - 1
	// The paper's headline: the leader's max outgoing load exceeds the
	// epidemic's median by a wide margin, while its median node is nearly
	// silent.
	if leader.MedianOut[lastL] > leader.MaxOut[lastL] {
		t.Error("leader median out exceeds max out")
	}
	if epidemic.MedianOut[lastL] <= 0 {
		t.Error("epidemic median node should send messages")
	}
	if out := res.Render(); !strings.Contains(out, "subs/node") {
		t.Error("render missing header")
	}
}

func TestRunAnalysis(t *testing.T) {
	res, err := RunAnalysis(DefaultAnalysisOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	if res.MissGeneric <= 0 || res.MissGeneric >= 1 {
		t.Errorf("miss probability %.4f out of range", res.MissGeneric)
	}
	if out := res.Render(); !strings.Contains(out, "Analytical") {
		t.Error("render missing title")
	}
	if _, err := RunAnalysis(AnalysisOptions{}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestLatencyRootFasterThanGeneric(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			res, err := RunLatency(LatencyOptions{
				Seed:        seed,
				Nodes:       150,
				SubsPerNode: 2,
				Events:      80,
				Configs:     DefaultLatencyOptions().Configs,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 2 {
				t.Fatalf("rows = %d", len(res.Rows))
			}
			root, generic := res.Rows[0], res.Rows[1]
			if root.MeanSteps <= 0 || generic.MeanSteps <= 0 {
				t.Fatalf("degenerate latencies: %+v %+v", root, generic)
			}
			// §6: the publication process benefits from root-based traversal.
			if root.MeanSteps >= generic.MeanSteps {
				t.Errorf("root mean %.2f should undercut generic %.2f",
					root.MeanSteps, generic.MeanSteps)
			}
			// The run is fault-free: every matching subscriber must be
			// notified.
			if root.Ratio != 1 {
				t.Errorf("root-based delivery ratio %.4f in a fault-free run, want 1", root.Ratio)
			}
			if !strings.Contains(res.Render(), "traversal") {
				t.Error("render missing header")
			}
		})
	}
	if _, err := RunLatency(LatencyOptions{}); err == nil {
		t.Error("invalid options accepted")
	}
}
