package conform

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"github.com/dps-overlay/dps/internal/chaos"
	"github.com/dps-overlay/dps/internal/core"
)

// TTRStats summarises a time-to-repair distribution in engine ticks
// (wall-clock ticks on the live engines).
type TTRStats struct {
	Samples int   `json:"samples"`
	Min     int64 `json:"min_ticks"`
	Median  int64 `json:"median_ticks"`
	P90     int64 `json:"p90_ticks"`
	P99     int64 `json:"p99_ticks"`
	Max     int64 `json:"max_ticks"`
}

func ttrStats(repairs []chaos.Repair) TTRStats {
	if len(repairs) == 0 {
		return TTRStats{}
	}
	steps := make([]int64, len(repairs))
	for i, r := range repairs {
		steps[i] = r.Steps
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })
	quantile := func(q float64) int64 { return steps[int(q*float64(len(steps)-1))] }
	return TTRStats{
		Samples: len(steps),
		Min:     steps[0],
		Median:  quantile(0.5),
		P90:     quantile(0.9),
		P99:     quantile(0.99),
		Max:     steps[len(steps)-1],
	}
}

// ttrByKind splits the repair intervals by fault kind. A repair interval
// that closed several coalesced fault kinds counts toward each.
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

// EngineRun is one scenario's outcome on one engine.
type EngineRun struct {
	Engine   string `json:"engine"`
	Scenario string `json:"scenario"`
	// Applied is the materialised fault log (absolute engine ticks).
	Applied []chaos.Applied `json:"applied"`
	// Checks is every invariant sweep in tick order.
	Checks []chaos.CheckRecord `json:"checks"`
	// Repairs are the closed fault→legal intervals; Unrepaired lists
	// fault ticks never followed by a clean sweep.
	Repairs    []chaos.Repair `json:"repairs"`
	Unrepaired []int64        `json:"unrepaired,omitempty"`
	// FinalCheck is the last sweep; FinalClean requires two consecutive
	// clean sweeps inside the convergence budget (a single clean sweep on
	// an asynchronous engine can be a lucky instant).
	FinalCheck chaos.CheckRecord `json:"final_check"`
	FinalClean bool              `json:"final_clean"`
	TTR        TTRStats          `json:"ttr"`
	// TTRByKind splits the repair distribution by fault kind; MaxTTR is
	// the effective repair bound this run was judged against (0 = none
	// declared); WithinBound is the bounded-repair verdict. The scenario
	// declares its bound in cycle-engine steps; on the asynchronous
	// engines the bound is widened by the same slack multiplier the
	// convergence budget uses, since their ticks elapse under real
	// scheduling jitter.
	TTRByKind   map[string]TTRStats `json:"ttr_by_kind,omitempty"`
	MaxTTR      int64               `json:"max_ttr,omitempty"`
	WithinBound bool                `json:"within_bound"`
	// Survivors is the fraction of the initial population (ids
	// 1..Nodes) alive at the end: churn joins take higher ids and must
	// not mask crash losses.
	Survivors float64 `json:"survivors"`
	// Delivery accounting against the shared oracle.
	Events          int     `json:"events"`
	ExpectedPairs   int     `json:"expected_pairs"`
	DeliveredPairs  int     `json:"delivered_pairs"`
	DeliveryRatio   float64 `json:"delivery_ratio"`
	FalseDeliveries int     `json:"false_deliveries"`
	// Drops are the engine's drop counters; ElapsedMS the wall-clock cost.
	Drops     EngineStats `json:"drops"`
	ElapsedMS float64     `json:"elapsed_ms"`

	rec *recorder // retained for the differential oracle
}

// DiffResult is the differential oracle's verdict for one engine against
// the sim reference on one scenario. Delivered sets are compared as sets
// (asynchronous engines have no global order), in two tiers:
//
//   - settled events — events whose full expected set the reference
//     delivered (the deterministic path: nothing about them depended on a
//     loss draw) — must agree pair-for-pair within the loss margin;
//   - all events must agree in aggregate: the engine's delivery ratio may
//     not fall more than the margin below the reference's. Events
//     published into an open loss window or partition lose a *different*
//     random subset of pairs on every engine, so per-pair identity is
//     undefined there — but losing *more* than the reference is exactly
//     the systematic asynchrony bug this oracle exists to catch.
//
// False deliveries — an event delivered to a node whose subscriptions
// never matched it — fail the oracle unconditionally.
type DiffResult struct {
	Engine   string `json:"engine"`
	Scenario string `json:"scenario"`
	// SettledEvents counts the reference-complete events; SettledPairs
	// their delivered (event, node) pairs; MissingPairs of those pairs the
	// engine did not deliver.
	SettledEvents int `json:"settled_events"`
	SettledPairs  int `json:"settled_pairs"`
	MissingPairs  int `json:"missing_pairs"`
	// ExtraPairs counts expected pairs the engine delivered anywhere the
	// reference did not (legitimate deliveries the lockstep engine
	// happened to lose).
	ExtraPairs int `json:"extra_pairs"`
	// FalseDeliveries counts deliveries to nodes whose subscriptions
	// never matched the event.
	FalseDeliveries int `json:"false_deliveries"`
	// Agreement is 1 - MissingPairs/SettledPairs (1 when no event
	// settled); RatioGap is max(0, reference ratio - engine ratio).
	Agreement float64 `json:"agreement"`
	RatioGap  float64 `json:"ratio_gap"`
	// Margin echoes the configured loss margin; Pass the verdict.
	Margin float64 `json:"margin"`
	Pass   bool    `json:"pass"`
}

// ScenarioResult bundles one scenario across all engines.
type ScenarioResult struct {
	Scenario string         `json:"scenario"`
	Timeline chaos.Scenario `json:"timeline"`
	// Runs holds one record per engine, sim reference first.
	Runs []EngineRun `json:"runs"`
	// Diffs holds the differential verdicts of the non-reference engines.
	Diffs []DiffResult `json:"diffs,omitempty"`
}

// Result is the full conformance report.
type Result struct {
	Opts       Options          `json:"opts"`
	Invariants []string         `json:"invariants"`
	Scenarios  []ScenarioResult `json:"scenarios"`
}

// AllClean reports whether every run on every engine ended
// invariant-clean inside its repair bound and every differential
// verdict passed.
func (r *Result) AllClean() bool {
	return len(r.FailingCells()) == 0
}

// FailingCells names every failing (scenario, engine) cell with its
// failure mode — the aggregation the exit status and run summary rest
// on, so one bad cell in a full matrix fails the whole run by name.
func (r *Result) FailingCells() []string {
	var cells []string
	for _, sc := range r.Scenarios {
		diffFailed := make(map[string]bool)
		for _, d := range sc.Diffs {
			if !d.Pass {
				diffFailed[d.Engine] = true
			}
		}
		for _, run := range sc.Runs {
			switch {
			case !run.FinalClean:
				cells = append(cells, fmt.Sprintf("%s/%s: %s", sc.Scenario, run.Engine, run.dirty()))
			case !run.WithinBound:
				cells = append(cells, fmt.Sprintf("%s/%s: repair bound %d exceeded (ttr max %d, %d unrepaired)",
					sc.Scenario, run.Engine, run.MaxTTR, run.TTR.Max, len(run.Unrepaired)))
			case diffFailed[run.Engine]:
				cells = append(cells, fmt.Sprintf("%s/%s: diverged from the sim reference",
					sc.Scenario, run.Engine))
			}
		}
	}
	return cells
}

// dirty says why a run is not FinalClean: its last sweep found
// violations, or the deadline came after a clean sweep that did not
// follow another one.
func (run *EngineRun) dirty() string {
	if run.FinalCheck.Total == 0 {
		return "not stably clean by the deadline (last sweep clean, but never two clean sweeps in a row)"
	}
	return fmt.Sprintf("final sweep dirty (%d violations)", run.FinalCheck.Total)
}

// checkEngines rejects any name that is not one of EngineNames.
func checkEngines(names []string) error {
	for _, name := range names {
		switch name {
		case EngineSim, EngineLive, EngineTCP:
		default:
			return fmt.Errorf("conform: unknown engine %q (have %s)",
				name, strings.Join(EngineNames(), ", "))
		}
	}
	return nil
}

// Run executes the conformance matrix: every selected scenario on every
// selected engine, with the cycle engine as the differential reference.
func Run(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if opts.Nodes < 4 {
		return nil, fmt.Errorf("conform: need at least 4 nodes, have %d", opts.Nodes)
	}
	engines := opts.Engines
	if err := checkEngines(engines); err != nil {
		return nil, err
	}
	names := opts.Scenarios
	if len(names) == 0 && len(opts.Custom) == 0 {
		names = chaos.PresetNames()
	}
	var scenarios []chaos.Scenario
	for _, name := range names {
		sc, ok := chaos.Preset(name)
		if !ok {
			return nil, fmt.Errorf("conform: unknown chaos scenario %q (have %s)",
				name, strings.Join(chaos.PresetNames(), ", "))
		}
		scenarios = append(scenarios, sc)
	}
	scenarios = append(scenarios, opts.Custom...)
	res := &Result{Opts: opts, Invariants: chaos.Invariants()}
	for _, sc := range scenarios {
		sr := ScenarioResult{Scenario: sc.Name, Timeline: sc}
		ref, err := runScenarioOn(EngineSim, sc, opts)
		if err != nil {
			return nil, err
		}
		sr.Runs = append(sr.Runs, *ref)
		for _, name := range engines {
			if name == EngineSim {
				continue
			}
			run, err := runScenarioOn(name, sc, opts)
			if err != nil {
				return nil, err
			}
			sr.Runs = append(sr.Runs, *run)
			sr.Diffs = append(sr.Diffs, diffRuns(ref, run, opts.LossMargin))
		}
		// The recorders only feed the differential oracle; drop them so a
		// retained Result does not pin every delivery map.
		for i := range sr.Runs {
			sr.Runs[i].rec = nil
		}
		res.Scenarios = append(res.Scenarios, sr)
	}
	return res, nil
}

// runScenarioOn builds a fresh overlay on the named engine, replays the
// scenario timeline with the invariant checker attached, and judges
// convergence.
func runScenarioOn(name string, sc chaos.Scenario, opts Options) (*EngineRun, error) {
	e, err := newEngine(name, opts)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	began := time.Now()

	if err := e.Bootstrap(opts.Nodes, 25); err != nil {
		return nil, err
	}

	checker := chaos.NewChecker(e, chaos.CheckerOptions{LeaderMode: opts.Config.Comm == core.LeaderBased})
	inj, err := chaos.NewInjector(e, e, checker, sc, opts.Seed)
	if err != nil {
		return nil, err
	}

	// Fault phase: faults, workload and periodic sweeps from one drive
	// loop. Sweeps happen with no workload in flight from the runner — the
	// quiesce window live snapshots are read in.
	start := e.Now()
	pubRng := rand.New(rand.NewSource(opts.Seed ^ 0xc405))
	for rel := int64(1); rel <= sc.Steps; rel++ {
		e.AwaitStep(start + rel)
		inj.Step(start + rel)
		if opts.EventEvery > 0 && rel%int64(opts.EventEvery) == 0 {
			e.PublishTracked(pubRng)
		}
		if rel%opts.CheckEvery == 0 {
			checker.Check(e.Now())
		}
	}

	// Convergence: fault-free sweeps until the configuration is stably
	// legal (two consecutive clean sweeps) or the budget runs out. The
	// slack multiplier absorbs the asynchronous engines' real scheduling
	// delays; the sim reference gets the scenario's own window and bound.
	slack := opts.ConvergeSlack
	if name == EngineSim {
		slack = 1
	}
	deadline := start + sc.Steps + int64(float64(sc.Converge)*slack)
	cleanStreak := 0
	for {
		next := e.Now() + opts.CheckEvery
		if next > deadline {
			next = deadline
		}
		e.AwaitStep(next)
		rec := checker.Check(e.Now())
		if rec.Total == 0 {
			cleanStreak++
		} else {
			cleanStreak = 0
		}
		if cleanStreak >= 2 || e.Now() >= deadline {
			break
		}
	}

	events, expectedPairs, deliveredPairs, falseDeliveries := e.rec.deliverySummary()
	checks := checker.Records()
	repairs := checker.Repairs()
	unrepaired := checker.Unrepaired()
	ttr := ttrStats(repairs)
	bound := int64(float64(sc.MaxTTR) * slack)
	initialAlive := 0
	for _, id := range e.AliveIDs() {
		if int(id) <= opts.Nodes {
			initialAlive++
		}
	}
	run := &EngineRun{
		Engine:          name,
		Scenario:        sc.Name,
		Applied:         inj.Applied(),
		Checks:          checks,
		Repairs:         repairs,
		Unrepaired:      unrepaired,
		FinalCheck:      checks[len(checks)-1],
		FinalClean:      cleanStreak >= 2,
		TTR:             ttr,
		TTRByKind:       ttrByKind(repairs),
		MaxTTR:          bound,
		WithinBound:     bound == 0 || (len(unrepaired) == 0 && ttr.Max <= bound),
		Survivors:       float64(initialAlive) / float64(opts.Nodes),
		Events:          events,
		ExpectedPairs:   expectedPairs,
		DeliveredPairs:  deliveredPairs,
		DeliveryRatio:   e.Ratio(),
		FalseDeliveries: falseDeliveries,
		Drops:           e.Stats(),
		ElapsedMS:       float64(time.Since(began).Microseconds()) / 1000,
		rec:             e.rec,
	}
	return run, nil
}

// diffRuns compares one engine's delivered sets against the reference.
func diffRuns(ref, run *EngineRun, margin float64) DiffResult {
	refSets := ref.rec.deliveredSets()
	engSets := run.rec.deliveredSets()
	d := DiffResult{
		Engine:          run.Engine,
		Scenario:        run.Scenario,
		FalseDeliveries: run.FalseDeliveries,
		Margin:          margin,
	}
	for ev, rset := range refSets {
		eset := engSets[ev]
		if len(rset) == len(ref.rec.expected[ev]) {
			// Settled: the reference delivered every expected recipient, so
			// no loss draw shaped this event — the engine must match it.
			d.SettledEvents++
			d.SettledPairs += len(rset)
			for id := range rset {
				if !eset[id] {
					d.MissingPairs++
				}
			}
		}
		for id := range eset {
			if !rset[id] {
				d.ExtraPairs++
			}
		}
	}
	d.Agreement = 1
	if d.SettledPairs > 0 {
		d.Agreement = 1 - float64(d.MissingPairs)/float64(d.SettledPairs)
	}
	if gap := ref.DeliveryRatio - run.DeliveryRatio; gap > 0 {
		d.RatioGap = gap
	}
	d.Pass = d.Agreement >= 1-margin && d.RatioGap <= margin && d.FalseDeliveries == 0
	return d
}

// Render prints one row per scenario × engine plus the differential
// verdicts, and details any failed final sweep.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cross-engine conformance — chaos scenarios with one oracle on all engines\n")
	fmt.Fprintf(&b, "(%d nodes × %d subscriptions, %s, tick %v, loss margin %.2f, seed %d)\n",
		r.Opts.Nodes, r.Opts.SubsPerNode, r.Opts.Config.Name, r.Opts.TickEvery, r.Opts.LossMargin, r.Opts.Seed)
	fmt.Fprintf(&b, "%-16s %-5s %-8s %7s %8s %9s %9s %7s %10s %10s %10s %6s\n",
		"scenario", "eng", "verdict", "faults", "repairs", "ttr p50", "ttr max", "bound",
		"delivery", "survivors", "agreement", "false")
	for _, sc := range r.Scenarios {
		diffFor := func(engine string) *DiffResult {
			for i := range sc.Diffs {
				if sc.Diffs[i].Engine == engine {
					return &sc.Diffs[i]
				}
			}
			return nil
		}
		for _, run := range sc.Runs {
			verdict := "CLEAN"
			if !run.FinalClean {
				verdict = "DIRTY"
			} else if !run.WithinBound {
				verdict = "SLOW"
			}
			agreement := "ref"
			if d := diffFor(run.Engine); d != nil {
				agreement = fmt.Sprintf("%.4f", d.Agreement)
				if !d.Pass {
					verdict = "DIVERGED"
				}
			}
			bound := "-"
			if run.MaxTTR > 0 {
				bound = fmt.Sprint(run.MaxTTR)
			}
			fmt.Fprintf(&b, "%-16s %-5s %-8s %7d %8d %9d %9d %7s %10.3f %10.2f %10s %6d\n",
				sc.Scenario, run.Engine, verdict, len(run.Applied), run.TTR.Samples,
				run.TTR.Median, run.TTR.Max, bound, run.DeliveryRatio, run.Survivors,
				agreement, run.FalseDeliveries)
		}
	}
	for _, sc := range r.Scenarios {
		for _, run := range sc.Runs {
			if run.FinalClean {
				continue
			}
			fmt.Fprintf(&b, "\n%s on %s: %s\n", sc.Scenario, run.Engine, run.dirty())
			invs := make([]string, 0, len(run.FinalCheck.ByInvariant))
			for inv := range run.FinalCheck.ByInvariant {
				invs = append(invs, inv)
			}
			sort.Strings(invs)
			for _, inv := range invs {
				fmt.Fprintf(&b, "  %-16s %d\n", inv, run.FinalCheck.ByInvariant[inv])
			}
			for _, v := range run.FinalCheck.Sample {
				fmt.Fprintf(&b, "  e.g. [%s] %s\n", v.Invariant, v.Detail)
			}
		}
	}
	if cells := r.FailingCells(); len(cells) > 0 {
		fmt.Fprintf(&b, "\nFAILING CELLS (%d):\n", len(cells))
		for _, c := range cells {
			fmt.Fprintf(&b, "  %s\n", c)
		}
	}
	b.WriteString("engines: sim = cycle reference, live = goroutine runtime, tcp = real TCP\n")
	return b.String()
}
