package conform

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/dps-overlay/dps/internal/chaos"
	"github.com/dps-overlay/dps/internal/core"
)

// chaosOptions is the cycle-engine chaos suite: the sim engine alone, at
// a population sized so every scenario still exercises multi-level trees.
func chaosOptions() Options {
	opts := DefaultOptions()
	opts.Engines = []string{EngineSim}
	opts.Nodes = 150
	return opts
}

// chaosTestOptions shrinks the suite for unit-test latency while keeping
// multi-level trees and every fault kind meaningful.
func chaosTestOptions() Options {
	opts := chaosOptions()
	opts.Nodes = 60
	return opts
}

// simRuns returns the sim run of every scenario, in scenario order.
func simRuns(t *testing.T, res *Result) []EngineRun {
	t.Helper()
	runs := make([]EngineRun, 0, len(res.Scenarios))
	for _, sc := range res.Scenarios {
		if len(sc.Runs) != 1 || sc.Runs[0].Engine != EngineSim {
			t.Fatalf("%s: want one sim run, have %d runs", sc.Scenario, len(sc.Runs))
		}
		runs = append(runs, sc.Runs[0])
	}
	return runs
}

// replayReport marshals a result with the wall-clock cost zeroed — the
// only field that differs between two runs of one seed.
func replayReport(t *testing.T, res *Result) []byte {
	t.Helper()
	for i := range res.Scenarios {
		for j := range res.Scenarios[i].Runs {
			res.Scenarios[i].Runs[j].ElapsedMS = 0
		}
	}
	raw, err := json.Marshal(res.Scenarios)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestChaosPresetsEndClean is the acceptance gate of the chaos suite:
// every shipped scenario preset must end invariant-clean after its
// convergence window on the cycle engine.
func TestChaosPresetsEndClean(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is long; skipped with -short")
	}
	res, err := Run(chaosTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != len(chaos.PresetNames()) {
		t.Fatalf("ran %d scenarios, want %d", len(res.Scenarios), len(chaos.PresetNames()))
	}
	for _, s := range simRuns(t, res) {
		if !s.FinalClean {
			t.Errorf("%s: final sweep dirty: %d violations %v; sample %+v",
				s.Scenario, s.FinalCheck.Total, s.FinalCheck.ByInvariant, s.FinalCheck.Sample)
		}
		if !s.WithinBound {
			t.Errorf("%s: repair bound %d exceeded (ttr max %d, %d unrepaired)",
				s.Scenario, s.MaxTTR, s.TTR.Max, len(s.Unrepaired))
		}
		if len(s.Applied) == 0 {
			t.Errorf("%s: no faults applied", s.Scenario)
		}
		if s.TTR.Samples == 0 {
			t.Errorf("%s: no repairs closed — time-to-repair unmeasured", s.Scenario)
		}
		if s.DeliveryRatio < 0.5 {
			t.Errorf("%s: delivery ratio %.3f collapsed", s.Scenario, s.DeliveryRatio)
		}
		for _, inv := range res.Invariants {
			if n := s.FinalCheck.ByInvariant[inv]; n != 0 {
				t.Errorf("%s: invariant %s dirty in final sweep (%d violations)", s.Scenario, inv, n)
			}
		}
	}
	if !res.AllClean() {
		t.Error("AllClean() false on a suite whose scenarios all passed")
	}
}

// TestChaosCorruptionPresetsMeasurePerFaultTTR pins the corruption-specific
// report surface: both corruption presets must declare a repair bound and
// report a per-fault-kind TTR distribution for the ops they script.
func TestChaosCorruptionPresetsMeasurePerFaultTTR(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is long; skipped with -short")
	}
	opts := chaosTestOptions()
	opts.Scenarios = []string{"corruption", "byzantine-state"}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range simRuns(t, res) {
		if s.MaxTTR == 0 {
			t.Errorf("%s: corruption preset without a declared repair bound", s.Scenario)
		}
		if len(s.TTRByKind) == 0 {
			t.Errorf("%s: no per-fault-kind TTR distribution", s.Scenario)
			continue
		}
		sawCorrupt := false
		for kind, st := range s.TTRByKind {
			if st.Samples == 0 {
				t.Errorf("%s: fault kind %s has an empty distribution", s.Scenario, kind)
			}
			if st.P99 < st.Median || st.Max < st.P99 {
				t.Errorf("%s: %s quantiles not monotone: %+v", s.Scenario, kind, st)
			}
			if strings.HasPrefix(kind, "corrupt-") {
				sawCorrupt = true
			}
		}
		if !sawCorrupt {
			t.Errorf("%s: no corrupt-* fault kind in TTR breakdown (have %v)",
				s.Scenario, s.TTRByKind)
		}
	}
}

// TestChaosReplayEquivalence pins the determinism contract: a scenario's
// whole report — fault log, every sweep, repairs, delivery — is
// bit-identical at any worker count.
func TestChaosReplayEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos replay is long; skipped with -short")
	}
	opts := chaosTestOptions()
	// One fail-stop scenario plus one corruption scenario: the Corrupt
	// action draws victims and ops from the injector's stream, so it must
	// replay bit-identically at any worker count like every other kind.
	opts.Scenarios = []string{"dependability", "corruption"}
	run := func(workers int) []byte {
		o := opts
		o.Workers = workers
		res, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		return replayReport(t, res)
	}
	base := run(1)
	for _, w := range []int{2, 4} {
		if got := run(w); string(got) != string(base) {
			t.Errorf("workers=%d: chaos report differs from sequential run", w)
		}
	}
}

func TestChaosUnknownScenario(t *testing.T) {
	opts := chaosTestOptions()
	opts.Scenarios = []string{"no-such-scenario"}
	if _, err := Run(opts); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// randomCorruptionScenario derives a fuzz scenario of n corruption events
// from a seed: random ops at random (sorted, spaced) steps against random
// victim counts. The derivation is pure — the same seed always yields the
// same scenario — so failures replay exactly and worker counts compare
// bit-identical timelines.
func randomCorruptionScenario(seed int64, n int) chaos.Scenario {
	rng := rand.New(rand.NewSource(seed))
	kinds := core.CorruptionKinds()
	// Space the events across the fault phase so pending repairs do not
	// pile into one unbounded chain; keep a convergence tail of two full
	// suspicion windows after the last event.
	steps := int64(60*n + 120)
	events := make([]chaos.Event, 0, n)
	for i := 0; i < n; i++ {
		events = append(events, chaos.Event{
			Step:  int64(40 + i*60 + rng.Intn(20)),
			Kind:  chaos.Corrupt,
			Op:    kinds[rng.Intn(len(kinds))],
			Count: 1 + rng.Intn(2),
		})
	}
	return chaos.Scenario{
		Name: fmt.Sprintf("corruption-fuzz-%d", seed),
		Description: "randomized corruption op sequence derived from the seed " +
			"(property test)",
		Steps:    steps,
		Converge: 400,
		Events:   events,
	}
}

// TestCorruptionPropertyRandomOpsConverge is the property test of the
// self-stabilization claim: ANY sequence of corruption ops must converge
// back to an invariant-clean configuration, with every injected fault's
// repair interval closed, at every worker count, bit-identically.
func TestCorruptionPropertyRandomOpsConverge(t *testing.T) {
	if testing.Short() {
		t.Skip("corruption property test is long; skipped with -short")
	}
	for _, seed := range []int64{1, 2, 3} {
		sc := randomCorruptionScenario(seed, 5)
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d: generated scenario invalid: %v", seed, err)
		}
		var base []byte
		for _, workers := range []int{1, 2, 4} {
			opts := chaosTestOptions()
			opts.Seed = seed
			opts.Workers = workers
			opts.Custom = []chaos.Scenario{sc}
			res, err := Run(opts)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if len(res.Scenarios) != 1 {
				t.Fatalf("seed %d: ran %d scenarios, want only the custom one",
					seed, len(res.Scenarios))
			}
			s := simRuns(t, res)[0]
			if !s.FinalClean {
				t.Errorf("seed %d workers %d: final sweep dirty: %v; sample %+v",
					seed, workers, s.FinalCheck.ByInvariant, s.FinalCheck.Sample)
			}
			if len(s.Unrepaired) > 0 {
				t.Errorf("seed %d workers %d: %d faults never repaired (steps %v)",
					seed, workers, len(s.Unrepaired), s.Unrepaired)
			}
			if len(s.Applied) == 0 {
				t.Errorf("seed %d workers %d: no corruption applied", seed, workers)
			}
			raw := replayReport(t, res)
			if base == nil {
				base = raw
			} else if string(raw) != string(base) {
				t.Errorf("seed %d workers %d: corruption report differs from sequential run",
					seed, workers)
			}
		}
	}
}

// TestCoverChurnWaveEndsClean drives covering through the churn-wave
// chaos preset — joins and graceful leaves racing repairs — the regime
// where unsubscribe must un-cover and re-propagate correctly (including
// the raced-leave exits in the join machinery). The scenario must end
// invariant-clean within its repair bound, with delivery intact.
func TestCoverChurnWaveEndsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenario is long; skipped with -short")
	}
	opts := chaosTestOptions()
	opts.Scenarios = []string{"churn-wave"}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range simRuns(t, res) {
		if !s.FinalClean {
			t.Errorf("%s: final sweep dirty: %d violations %v; sample %+v",
				s.Scenario, s.FinalCheck.Total, s.FinalCheck.ByInvariant, s.FinalCheck.Sample)
		}
		if !s.WithinBound {
			t.Errorf("%s: repair bound %d exceeded (ttr max %d, %d unrepaired)",
				s.Scenario, s.MaxTTR, s.TTR.Max, len(s.Unrepaired))
		}
		if s.DeliveryRatio < 0.5 {
			t.Errorf("%s: delivery ratio %.3f collapsed", s.Scenario, s.DeliveryRatio)
		}
	}
}
