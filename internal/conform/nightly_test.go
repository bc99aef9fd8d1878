package conform

import (
	"os"
	goruntime "runtime"
	"testing"

	"github.com/dps-overlay/dps/internal/chaos"
)

// TestConformNightlyMatrix is the long-run conformance job — the
// acceptance matrix of the cross-engine harness:
//
//   - the sim reference must end every preset invariant-clean at seeds
//     1–3 (determinism makes one run per seed sufficient);
//   - the livenet and tcpnet engines must end every preset
//     invariant-clean across three independent runs each (asynchronous
//     engines are nondeterministic — repetition is the coverage), with
//     the differential oracle passing every run.
//
// It only runs when CONFORM_NIGHTLY=1 (the nightly CI cron, under
// -race); the PR workflow keeps the single-preset smoke in
// conform_test.go.
func TestConformNightlyMatrix(t *testing.T) {
	if os.Getenv("CONFORM_NIGHTLY") == "" {
		t.Skip("nightly matrix; set CONFORM_NIGHTLY=1 to run")
	}

	// Sim reference across seeds.
	for _, seed := range []int64{1, 2, 3} {
		opts := DefaultOptions()
		opts.Seed = seed
		opts.Engines = []string{EngineSim}
		res, err := Run(opts)
		if err != nil {
			t.Fatalf("sim seed %d: %v", seed, err)
		}
		for _, sc := range res.Scenarios {
			run := sc.Runs[0]
			if !run.FinalClean {
				t.Errorf("sim seed %d %s: final sweep dirty: %d violations %v; sample %+v",
					seed, sc.Scenario, run.FinalCheck.Total, run.FinalCheck.ByInvariant,
					run.FinalCheck.Sample)
			}
			if !run.WithinBound {
				t.Errorf("sim seed %d %s: repair bound %d exceeded (ttr max %d, %d unrepaired)",
					seed, sc.Scenario, run.MaxTTR, run.TTR.Max, len(run.Unrepaired))
			}
			if run.FalseDeliveries != 0 {
				t.Errorf("sim seed %d %s: %d false deliveries", seed, sc.Scenario, run.FalseDeliveries)
			}
		}
	}

	// Live engines: three independent full-suite runs each.
	for round := 0; round < 3; round++ {
		res, err := Run(DefaultOptions())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, sc := range res.Scenarios {
			for _, run := range sc.Runs {
				if !run.FinalClean {
					t.Errorf("round %d %s on %s: final sweep dirty: %d violations %v; sample %+v",
						round, sc.Scenario, run.Engine, run.FinalCheck.Total,
						run.FinalCheck.ByInvariant, run.FinalCheck.Sample)
				}
				if !run.WithinBound {
					t.Errorf("round %d %s on %s: repair bound %d exceeded (ttr max %d, %d unrepaired)",
						round, sc.Scenario, run.Engine, run.MaxTTR, run.TTR.Max, len(run.Unrepaired))
				}
				if run.FalseDeliveries != 0 {
					t.Errorf("round %d %s on %s: %d false deliveries",
						round, sc.Scenario, run.Engine, run.FalseDeliveries)
				}
			}
			for _, d := range sc.Diffs {
				if !d.Pass {
					t.Errorf("round %d %s on %s: differential oracle failed: "+
						"agreement=%.4f (settled %d/%d pairs missing) gap=%.4f false=%d",
						round, sc.Scenario, d.Engine, d.Agreement, d.MissingPairs,
						d.SettledPairs, d.RatioGap, d.FalseDeliveries)
				}
			}
		}
		if testing.Verbose() {
			t.Logf("round %d:\n%s", round, res.Render())
		}
	}
}

// TestChaosNightlySuite is the long-run chaos job on the cycle engine:
// every scenario preset at three seeds, plus replay equivalence of the
// full suite at workers 1, 2 and NumCPU. It only runs when
// CHAOS_NIGHTLY=1 (the nightly CI cron); the PR workflow keeps the short
// variants in chaos_test.go.
func TestChaosNightlySuite(t *testing.T) {
	if os.Getenv("CHAOS_NIGHTLY") == "" {
		t.Skip("nightly suite; set CHAOS_NIGHTLY=1 to run")
	}
	for _, seed := range []int64{1, 2, 3} {
		opts := chaosOptions()
		opts.Seed = seed
		res, err := Run(opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, s := range simRuns(t, res) {
			if !s.FinalClean {
				t.Errorf("seed %d %s: final sweep dirty: %d violations %v; sample %+v",
					seed, s.Scenario, s.FinalCheck.Total, s.FinalCheck.ByInvariant, s.FinalCheck.Sample)
			}
			if s.TTR.Samples == 0 {
				t.Errorf("seed %d %s: no repairs closed", seed, s.Scenario)
			}
		}
	}

	// Replay equivalence of the whole suite across worker counts.
	run := func(workers int) []byte {
		opts := chaosOptions()
		opts.Workers = workers
		res, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		return replayReport(t, res)
	}
	counts := []int{1, 2}
	if n := goruntime.NumCPU(); n > 2 {
		counts = append(counts, n)
	}
	base := run(counts[0])
	for _, w := range counts[1:] {
		if got := run(w); string(got) != string(base) {
			t.Errorf("workers=%d: chaos suite report differs from sequential run", w)
		}
	}
}

// TestCorruptionPropertyNightly is the larger-N variant for the nightly
// cron: longer random op sequences across more seeds.
func TestCorruptionPropertyNightly(t *testing.T) {
	if os.Getenv("CHAOS_NIGHTLY") == "" {
		t.Skip("nightly fuzz; set CHAOS_NIGHTLY=1 to run")
	}
	for seed := int64(1); seed <= 5; seed++ {
		sc := randomCorruptionScenario(seed*7919, 12)
		opts := chaosOptions()
		opts.Seed = seed
		opts.Custom = []chaos.Scenario{sc}
		res, err := Run(opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s := simRuns(t, res)[0]
		if !s.FinalClean {
			t.Errorf("seed %d: final sweep dirty: %v; sample %+v",
				seed, s.FinalCheck.ByInvariant, s.FinalCheck.Sample)
		}
		if len(s.Unrepaired) > 0 {
			t.Errorf("seed %d: %d faults never repaired (steps %v)",
				seed, len(s.Unrepaired), s.Unrepaired)
		}
	}
}
