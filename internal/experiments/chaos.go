package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"github.com/dps-overlay/dps/internal/chaos"
	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/sim"
	"github.com/dps-overlay/dps/internal/workload"
)

// The chaos suite: scripted fault scenarios with continuous structural
// invariant checking (internal/chaos), run on the experiment cluster.
// Where Figure 3 measures the repair machinery of §4.3 indirectly through
// delivery ratios, this suite asserts the structure itself: after every
// scenario's convergence window the semantic trees must again satisfy the
// legal-configuration invariants, and the per-fault time-to-repair is
// reported as a first-class metric.

// ChaosOptions parameterise the chaos suite.
type ChaosOptions struct {
	Seed int64
	// Nodes is the initial population; SubsPerNode its subscriptions each.
	Nodes       int
	SubsPerNode int
	// EventEvery publishes one tracked event every N steps of the fault
	// phase (0 disables publishing).
	EventEvery int
	// CheckEvery is the invariant sweep period in steps.
	CheckEvery int64
	// Scenarios names the presets to run; empty runs the whole suite.
	Scenarios []string
	// Custom appends ad-hoc scenarios (fuzz/property harnesses) to the
	// selected presets. Each must pass chaos.Scenario.Validate.
	Custom []chaos.Scenario
	// Config is the protocol variant under test.
	Config ConfigSpec
	// Parallelism is the engine worker count: 0/1 sequential, W > 1
	// parallel on W workers, negative one worker per CPU. Reports are
	// bit-identical across worker counts for a given seed.
	Parallelism int
}

// DefaultChaosOptions returns a population sized so the full suite stays
// CI-friendly while every scenario still exercises multi-level trees.
func DefaultChaosOptions() ChaosOptions {
	return ChaosOptions{
		Seed:        1,
		Nodes:       150,
		SubsPerNode: 2,
		EventEvery:  10,
		CheckEvery:  10,
		Config:      ConfigSpec{Name: "leader root", Traversal: core.RootBased, Comm: core.LeaderBased},
	}
}

// TTRStats summarises a time-to-repair distribution (steps from fault
// injection to the first all-clean invariant sweep).
type TTRStats struct {
	Samples int   `json:"samples"`
	Min     int64 `json:"min_steps"`
	Median  int64 `json:"median_steps"`
	P90     int64 `json:"p90_steps"`
	P99     int64 `json:"p99_steps"`
	Max     int64 `json:"max_steps"`
}

// ttrStats computes the summary from closed repairs.
func ttrStats(repairs []chaos.Repair) TTRStats {
	if len(repairs) == 0 {
		return TTRStats{}
	}
	steps := make([]int64, len(repairs))
	for i, r := range repairs {
		steps[i] = r.Steps
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })
	quantile := func(q float64) int64 {
		i := int(q * float64(len(steps)-1))
		return steps[i]
	}
	return TTRStats{
		Samples: len(steps),
		Min:     steps[0],
		Median:  quantile(0.5),
		P90:     quantile(0.9),
		P99:     quantile(0.99),
		Max:     steps[len(steps)-1],
	}
}

// ttrByKind groups closed repairs by the fault labels they repaired. A
// sweep that closes several pending faults at once counts toward each of
// their labels, so per-fault distributions stay comparable across
// scenarios that interleave fault kinds.
func ttrByKind(repairs []chaos.Repair) map[string]TTRStats {
	byKind := make(map[string][]chaos.Repair)
	for _, r := range repairs {
		for _, k := range r.Kinds {
			byKind[k] = append(byKind[k], r)
		}
	}
	if len(byKind) == 0 {
		return nil
	}
	out := make(map[string]TTRStats, len(byKind))
	for k, rs := range byKind {
		out[k] = ttrStats(rs)
	}
	return out
}

// ChaosScenarioResult is one scenario's verdict: the materialised fault
// log, every invariant sweep, the repair intervals, and the protocol
// health metrics for context.
type ChaosScenarioResult struct {
	Scenario string `json:"scenario"`
	// Timeline is the scripted scenario (scenario-relative steps).
	Timeline chaos.Scenario `json:"timeline"`
	// Applied is the materialised fault log (absolute engine steps).
	Applied []chaos.Applied `json:"applied"`
	// Checks is every invariant sweep in step order.
	Checks []chaos.CheckRecord `json:"checks"`
	// Repairs are the closed fault→legal intervals; Unrepaired lists
	// fault steps never followed by a clean sweep (final-verdict
	// failures).
	Repairs    []chaos.Repair `json:"repairs"`
	Unrepaired []int64        `json:"unrepaired,omitempty"`
	// FinalCheck is the forced sweep after the convergence window;
	// FinalClean is the scenario verdict.
	FinalCheck chaos.CheckRecord `json:"final_check"`
	FinalClean bool              `json:"final_clean"`
	// InvariantVerdicts gives the final sweep's per-invariant verdict
	// (true = clean) for every invariant the checker enforces.
	InvariantVerdicts map[string]bool `json:"invariant_verdicts"`
	TTR               TTRStats        `json:"ttr"`
	// TTRByKind breaks the repair distribution down per fault label
	// ("crash", "corrupt-deference-cycle", ...).
	TTRByKind map[string]TTRStats `json:"ttr_by_kind,omitempty"`
	// MaxTTR is the scenario's declared repair bound (0 = unbounded);
	// WithinBound is false when any fault went unrepaired or a repair
	// exceeded the bound.
	MaxTTR      int64 `json:"max_ttr,omitempty"`
	WithinBound bool  `json:"within_bound"`
	// DeliveryRatio and Survivors give the Figure-3-style context.
	DeliveryRatio float64 `json:"delivery_ratio"`
	Survivors     float64 `json:"survivors"`
}

// ChaosResult bundles the suite.
type ChaosResult struct {
	Opts       ChaosOptions          `json:"opts"`
	Invariants []string              `json:"invariants"`
	Scenarios  []ChaosScenarioResult `json:"scenarios"`
}

// AllClean reports whether every scenario ended invariant-clean AND inside
// its declared repair bound.
func (r *ChaosResult) AllClean() bool {
	for _, s := range r.Scenarios {
		if !s.FinalClean || !s.WithinBound {
			return false
		}
	}
	return true
}

// RunChaos runs the selected chaos scenarios and returns their verdicts.
func RunChaos(opts ChaosOptions) (*ChaosResult, error) {
	if opts.Nodes <= 0 || opts.SubsPerNode <= 0 {
		return nil, fmt.Errorf("experiments: chaos needs a positive population")
	}
	if opts.Config.Cover && opts.Config.Comm != core.LeaderBased {
		return nil, fmt.Errorf("experiments: covering (CoverRouting) requires leader-based communication; config %q is epidemic", opts.Config.Name)
	}
	if opts.CheckEvery <= 0 {
		opts.CheckEvery = 10
	}
	names := opts.Scenarios
	if len(names) == 0 && len(opts.Custom) == 0 {
		names = chaos.PresetNames()
	}
	var scenarios []chaos.Scenario
	for _, name := range names {
		sc, ok := chaos.Preset(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown chaos scenario %q (have %s)",
				name, strings.Join(chaos.PresetNames(), ", "))
		}
		scenarios = append(scenarios, sc)
	}
	scenarios = append(scenarios, opts.Custom...)
	res := &ChaosResult{Opts: opts, Invariants: chaos.Invariants()}
	for _, sc := range scenarios {
		sr, err := runChaosScenario(opts, sc)
		if err != nil {
			return nil, err
		}
		res.Scenarios = append(res.Scenarios, sr)
	}
	return res, nil
}

// clusterTarget adapts a Cluster to the checker's read-only Target.
type clusterTarget struct{ c *Cluster }

func (t clusterTarget) AliveIDs() []sim.NodeID { return t.c.Engine.AliveIDs() }

func (t clusterTarget) StructuralSnapshot(id sim.NodeID) []core.MembershipSnapshot {
	return t.c.Nodes[id].StructuralSnapshot()
}

func (t clusterTarget) TreeOwner(attr string) (sim.NodeID, bool) { return t.c.Dir.Owner(attr) }

// chaosPopulation adapts a Cluster to the injector's Population surface.
type chaosPopulation struct {
	c       *Cluster
	gen     *workload.Generator
	perNode int
}

func (p *chaosPopulation) Restart(id sim.NodeID) { p.c.RestartNode(id) }

func (p *chaosPopulation) Join() sim.NodeID {
	id := p.c.AddNode()
	for s := 0; s < p.perNode; s++ {
		// Generator filters are always satisfiable; an error is a harness bug.
		if err := p.c.Subscribe(id, p.gen.Subscription()); err != nil {
			panic(fmt.Sprintf("experiments: chaos join subscribe: %v", err))
		}
	}
	return id
}

func (p *chaosPopulation) Leave(id sim.NodeID) { p.c.LeaveNode(id) }

// Corrupt applies a structural corruption directly to the node's state
// (chaos.Corruptor). The injector only hands us ids it drew from the
// alive set; a node that raced into departure simply reports no mutation.
func (p *chaosPopulation) Corrupt(id sim.NodeID, op core.CorruptionOp) bool {
	n, ok := p.c.Nodes[id]
	if !ok || !p.c.Engine.Alive(id) {
		return false
	}
	return n.ApplyCorruption(op)
}

// runChaosScenario builds a fresh overlay, replays one scenario against
// it with the invariant checker attached, and closes with a forced sweep
// after the convergence window.
func runChaosScenario(opts ChaosOptions, sc chaos.Scenario) (ChaosScenarioResult, error) {
	c := NewClusterParallel(opts.Config, opts.Seed, opts.Parallelism)
	gen := workload.MustGenerator(workload.Workload2(), opts.Seed)
	c.SubscribePopulation(opts.Nodes, opts.SubsPerNode, 25, gen)

	checker := chaos.NewChecker(clusterTarget{c}, chaos.CheckerOptions{
		Every:      opts.CheckEvery,
		LeaderMode: opts.Config.Comm == core.LeaderBased,
	})
	// Registered after the stepped directory, so sweeps observe each
	// step's committed directory state.
	c.Engine.AddService(checker)
	pop := &chaosPopulation{c: c, gen: gen, perNode: opts.SubsPerNode}
	inj, err := chaos.NewInjector(c.Engine, pop, checker, sc, opts.Seed)
	if err != nil {
		return ChaosScenarioResult{}, err
	}
	inj.Arm(c.Engine)
	checker.Enable(true)

	rng := rand.New(rand.NewSource(opts.Seed ^ 0xc405))
	for step := int64(1); step <= sc.Steps; step++ {
		if opts.EventEvery > 0 && step%int64(opts.EventEvery) == 0 {
			c.PublishTracked(gen.Event(), rng.Int63())
		}
		c.Engine.Step()
	}
	inj.Disarm(c.Engine)
	c.Engine.Run(int(sc.Converge))
	final := checker.Check(c.Engine.Now())

	// Survivors counts only the initial population (ids 1..Nodes): churn
	// joins take higher ids and must not mask crash losses or push the
	// fraction above 1.
	initialAlive := 0
	for _, id := range c.Engine.AliveIDs() {
		if int64(id) <= int64(opts.Nodes) {
			initialAlive++
		}
	}

	repairs := checker.Repairs()
	unrepaired := checker.Unrepaired()
	ttr := ttrStats(repairs)
	verdicts := make(map[string]bool, len(chaos.Invariants()))
	for _, inv := range chaos.Invariants() {
		verdicts[inv] = final.ByInvariant[inv] == 0
	}
	return ChaosScenarioResult{
		Scenario:          sc.Name,
		Timeline:          sc,
		Applied:           inj.Applied(),
		Checks:            checker.Records(),
		Repairs:           repairs,
		Unrepaired:        unrepaired,
		FinalCheck:        final,
		FinalClean:        final.Total == 0,
		InvariantVerdicts: verdicts,
		TTR:               ttr,
		TTRByKind:         ttrByKind(repairs),
		MaxTTR:            sc.MaxTTR,
		WithinBound:       sc.MaxTTR == 0 || (len(unrepaired) == 0 && ttr.Max <= sc.MaxTTR),
		DeliveryRatio:     c.Tracker.Ratio(),
		Survivors:         float64(initialAlive) / float64(opts.Nodes),
	}, nil
}

// Render prints one row per scenario plus a per-invariant violation
// summary for any scenario that failed its final sweep.
func (r *ChaosResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos suite — scripted faults with continuous invariant checking\n")
	fmt.Fprintf(&b, "(%d nodes × %d subscriptions, %s, check every %d steps, seed %d)\n",
		r.Opts.Nodes, r.Opts.SubsPerNode, r.Opts.Config.Name, r.Opts.CheckEvery, r.Opts.Seed)
	fmt.Fprintf(&b, "%-16s %-8s %8s %8s %10s %10s %10s %9s %10s\n",
		"scenario", "verdict", "faults", "repairs", "ttr p50", "ttr max", "bound", "delivery", "survivors")
	for _, s := range r.Scenarios {
		verdict := "CLEAN"
		switch {
		case !s.FinalClean:
			verdict = "DIRTY"
		case !s.WithinBound:
			verdict = "SLOW"
		}
		bound := "-"
		if s.MaxTTR > 0 {
			bound = fmt.Sprintf("%d", s.MaxTTR)
		}
		fmt.Fprintf(&b, "%-16s %-8s %8d %8d %10d %10d %10s %9.3f %10.2f\n",
			s.Scenario, verdict, len(s.Applied), s.TTR.Samples,
			s.TTR.Median, s.TTR.Max, bound, s.DeliveryRatio, s.Survivors)
	}
	for _, s := range r.Scenarios {
		if s.FinalClean {
			continue
		}
		fmt.Fprintf(&b, "\n%s final sweep violations (%d total):\n", s.Scenario, s.FinalCheck.Total)
		invs := make([]string, 0, len(s.FinalCheck.ByInvariant))
		for inv := range s.FinalCheck.ByInvariant {
			invs = append(invs, inv)
		}
		sort.Strings(invs)
		for _, inv := range invs {
			fmt.Fprintf(&b, "  %-16s %d\n", inv, s.FinalCheck.ByInvariant[inv])
		}
		for _, v := range s.FinalCheck.Sample {
			fmt.Fprintf(&b, "  e.g. [%s] %s\n", v.Invariant, v.Detail)
		}
	}
	b.WriteString("legal configuration: acyclic + connected + containment + view-symmetry + no-orphans\n")
	return b.String()
}
