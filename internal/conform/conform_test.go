package conform

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/dps-overlay/dps/internal/chaos"
	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/livenet"
	"github.com/dps-overlay/dps/internal/sim"
	"github.com/dps-overlay/dps/internal/workload"
)

// TestConformSmoke is the PR-gate conformance check: one preset on all
// three engines, short tick, with the differential oracle armed. The
// full scenario × engine matrix runs nightly (see nightly_test.go).
func TestConformSmoke(t *testing.T) {
	opts := DefaultOptions()
	opts.Scenarios = []string{"crash-burst"}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 1 {
		t.Fatalf("scenarios = %d", len(res.Scenarios))
	}
	sc := res.Scenarios[0]
	if len(sc.Runs) != 3 || len(sc.Diffs) != 2 {
		t.Fatalf("runs = %d, diffs = %d; want 3, 2", len(sc.Runs), len(sc.Diffs))
	}
	if sc.Runs[0].Engine != EngineSim {
		t.Errorf("first run is %q, want the sim reference", sc.Runs[0].Engine)
	}
	for _, run := range sc.Runs {
		if !run.FinalClean {
			t.Errorf("%s: final sweep dirty: %+v", run.Engine, run.FinalCheck)
		}
		if run.FalseDeliveries != 0 {
			t.Errorf("%s: %d false deliveries", run.Engine, run.FalseDeliveries)
		}
		if run.Events == 0 || run.ExpectedPairs == 0 {
			t.Errorf("%s: no tracked workload ran (events=%d expected=%d)",
				run.Engine, run.Events, run.ExpectedPairs)
		}
		if len(run.Applied) == 0 {
			t.Errorf("%s: no faults materialised", run.Engine)
		}
	}
	for _, d := range sc.Diffs {
		if !d.Pass {
			t.Errorf("%s: differential oracle failed: agreement=%.4f gap=%.4f false=%d",
				d.Engine, d.Agreement, d.RatioGap, d.FalseDeliveries)
		}
	}
	if !res.AllClean() {
		t.Error("AllClean() = false with clean runs and passing diffs")
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("result does not marshal: %v", err)
	}
}

// TestConformCorruptionAcrossEngines is the self-stabilization smoke on
// the live runtimes: the corruption preset must materialise its scripted
// ops on every engine (via Peer.Do / Transport.Do on the goroutine
// runtimes) and every engine must converge invariant-clean inside the
// declared repair bound.
func TestConformCorruptionAcrossEngines(t *testing.T) {
	opts := DefaultOptions()
	opts.Scenarios = []string{"corruption"}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	sc := res.Scenarios[0]
	if sc.Timeline.MaxTTR == 0 {
		t.Fatal("corruption preset carries no repair bound")
	}
	for _, run := range sc.Runs {
		if !run.FinalClean {
			t.Errorf("%s: final sweep dirty: %d violations %v; sample %+v",
				run.Engine, run.FinalCheck.Total, run.FinalCheck.ByInvariant,
				run.FinalCheck.Sample)
		}
		if !run.WithinBound {
			t.Errorf("%s: repair bound %d exceeded (ttr max %d, %d unrepaired)",
				run.Engine, run.MaxTTR, run.TTR.Max, len(run.Unrepaired))
		}
		corrupted := 0
		for _, a := range run.Applied {
			if a.Kind == chaos.Corrupt {
				corrupted++
			}
		}
		if corrupted == 0 {
			t.Errorf("%s: no corruption materialised (applied %d faults)",
				run.Engine, len(run.Applied))
		}
		sawCorrupt := false
		for kind := range run.TTRByKind {
			if len(kind) > 8 && kind[:8] == "corrupt-" {
				sawCorrupt = true
			}
		}
		if !sawCorrupt {
			t.Errorf("%s: no corrupt-* fault kind in the TTR breakdown (have %v)",
				run.Engine, run.TTRByKind)
		}
	}
	if cells := res.FailingCells(); len(cells) != 0 && !t.Failed() {
		t.Errorf("FailingCells non-empty on a passing matrix: %v", cells)
	}
}

// TestFailingCellsNamesEveryBadCell pins the exit-status aggregation: a
// matrix with one dirty cell, one over-bound cell and one diverged cell
// must name each (scenario, engine) pair and why a dirty cell is dirty,
// and AllClean must be false.
func TestFailingCellsNamesEveryBadCell(t *testing.T) {
	res := &Result{Scenarios: []ScenarioResult{
		{
			Scenario: "a",
			Runs: []EngineRun{
				{Engine: EngineSim, Scenario: "a", FinalClean: true, WithinBound: true},
				{Engine: EngineLive, Scenario: "a", FinalClean: false, WithinBound: true},
				{Engine: EngineTCP, Scenario: "a", FinalClean: true, WithinBound: false, MaxTTR: 10, TTR: TTRStats{Max: 25}},
			},
		},
		{
			Scenario: "b",
			Runs: []EngineRun{
				{Engine: EngineSim, Scenario: "b", FinalClean: true, WithinBound: true},
				{Engine: EngineLive, Scenario: "b", FinalClean: true, WithinBound: true},
			},
			Diffs: []DiffResult{{Engine: EngineLive, Scenario: "b", Pass: false}},
		},
	}}
	cells := res.FailingCells()
	if len(cells) != 3 {
		t.Fatalf("FailingCells = %v, want 3 entries", cells)
	}
	for i, want := range []string{"a/live", "a/tcp", "b/live"} {
		if len(cells[i]) < len(want) || cells[i][:len(want)] != want {
			t.Errorf("cell %d = %q, want prefix %q", i, cells[i], want)
		}
	}
	if res.AllClean() {
		t.Error("AllClean true with failing cells")
	}
	// A dirty run whose last sweep was clean was not stably clean by the
	// deadline; one whose last sweep was not names its violations.
	stable := "a/live: not stably clean by the deadline (last sweep clean, but never two clean sweeps in a row)"
	if cells[0] != stable {
		t.Errorf("cell 0 = %q, want %q", cells[0], stable)
	}
	if !strings.Contains(res.Render(), "a on live: not stably clean by the deadline") {
		t.Error("Render does not explain the unstable cell")
	}
	res.Scenarios[0].Runs[1].FinalCheck.Total = 3
	if got, want := res.FailingCells()[0], "a/live: final sweep dirty (3 violations)"; got != want {
		t.Errorf("cell 0 = %q, want %q", got, want)
	}
	clean := &Result{Scenarios: []ScenarioResult{{
		Scenario: "a",
		Runs:     []EngineRun{{Engine: EngineSim, FinalClean: true, WithinBound: true}},
	}}}
	if !clean.AllClean() || len(clean.FailingCells()) != 0 {
		t.Error("clean matrix reported failing cells")
	}
}

// TestConformFaultTimelineMatchesAcrossEngines pins the cross-engine
// determinism the differential oracle rests on: the same scenario
// materialises the same fault log — same kinds, same steps relative to
// scenario start, same victim sets — on every engine.
func TestConformFaultTimelineMatchesAcrossEngines(t *testing.T) {
	opts := DefaultOptions()
	opts.Scenarios = []string{"dependability"}
	opts.EventEvery = 0 // faults only; workload does not affect the timeline
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := res.Scenarios[0].Runs[0]
	for _, run := range res.Scenarios[0].Runs[1:] {
		if len(run.Applied) != len(ref.Applied) {
			t.Fatalf("%s applied %d faults, reference %d", run.Engine, len(run.Applied), len(ref.Applied))
		}
		for i, a := range run.Applied {
			r := ref.Applied[i]
			if a.Kind != r.Kind || a.Rate != r.Rate || a.Links != r.Links {
				t.Errorf("%s fault %d = %+v, reference %+v", run.Engine, i, a, r)
			}
			if len(a.Nodes) != len(r.Nodes) {
				t.Errorf("%s fault %d hit %v, reference %v", run.Engine, i, a.Nodes, r.Nodes)
				continue
			}
			for j := range a.Nodes {
				if a.Nodes[j] != r.Nodes[j] {
					t.Errorf("%s fault %d victim %d = %d, reference %d",
						run.Engine, i, j, a.Nodes[j], r.Nodes[j])
				}
			}
		}
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	if _, err := Run(Options{Scenarios: []string{"no-such-scenario"}}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := Run(Options{Engines: []string{"quantum"}}); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, err := Run(Options{Nodes: 2}); err == nil {
		t.Error("tiny population accepted")
	}
	if _, err := RunThroughput(ThroughputOptions{Engines: []string{"quantum"}}); err == nil {
		t.Error("throughput: unknown engine accepted")
	}
	if _, err := RunThroughput(ThroughputOptions{Nodes: 2}); err == nil {
		t.Error("throughput: tiny population accepted")
	}
}

// fakeRun builds an EngineRun with a recorder holding scripted expected
// and delivered sets, for differential-oracle unit tests.
func fakeRun(engine string, ratio float64, expected map[core.EventID][]sim.NodeID,
	delivered map[core.EventID][]sim.NodeID) *EngineRun {
	rec := newRecorder()
	for ev, ids := range expected {
		rec.order = append(rec.order, ev)
		set := make(map[sim.NodeID]bool, len(ids))
		for _, id := range ids {
			set[id] = true
		}
		rec.expected[ev] = set
	}
	for ev, ids := range delivered {
		for _, id := range ids {
			rec.log(id).deliver(ev, 0)
		}
	}
	return &EngineRun{Engine: engine, DeliveryRatio: ratio, rec: rec}
}

func TestDifferentialOracleVerdicts(t *testing.T) {
	expected := map[core.EventID][]sim.NodeID{
		1: {1, 2, 3}, // settled in the reference below
		2: {1, 2, 3}, // unsettled: the reference lost node 3
	}
	ref := fakeRun(EngineSim, 0.9, expected, map[core.EventID][]sim.NodeID{
		1: {1, 2, 3},
		2: {1, 2},
	})

	t.Run("perfect agreement passes", func(t *testing.T) {
		run := fakeRun(EngineLive, 0.9, expected, map[core.EventID][]sim.NodeID{
			1: {1, 2, 3}, 2: {1, 2},
		})
		d := diffRuns(ref, run, 0.1)
		if !d.Pass || d.Agreement != 1 || d.MissingPairs != 0 {
			t.Errorf("diff = %+v", d)
		}
		if d.SettledEvents != 1 || d.SettledPairs != 3 {
			t.Errorf("settled = %d events / %d pairs, want 1 / 3", d.SettledEvents, d.SettledPairs)
		}
	})

	t.Run("missing settled pairs beyond margin fails", func(t *testing.T) {
		run := fakeRun(EngineLive, 0.9, expected, map[core.EventID][]sim.NodeID{
			1: {1}, 2: {1, 2},
		})
		d := diffRuns(ref, run, 0.1)
		if d.Pass {
			t.Errorf("diff passed with 2/3 settled pairs missing: %+v", d)
		}
	})

	t.Run("unsettled disagreement tolerated, extras counted", func(t *testing.T) {
		// Event 2 was shaped by loss in the reference: the engine losing a
		// different subset (and even delivering node 3) must not fail the
		// set tier.
		run := fakeRun(EngineLive, 0.9, expected, map[core.EventID][]sim.NodeID{
			1: {1, 2, 3}, 2: {3},
		})
		d := diffRuns(ref, run, 0.1)
		if !d.Pass || d.ExtraPairs != 1 {
			t.Errorf("diff = %+v", d)
		}
	})

	t.Run("ratio gap beyond margin fails", func(t *testing.T) {
		run := fakeRun(EngineLive, 0.7, expected, map[core.EventID][]sim.NodeID{
			1: {1, 2, 3}, 2: {1, 2},
		})
		d := diffRuns(ref, run, 0.1)
		if d.Pass || d.RatioGap < 0.19 {
			t.Errorf("diff passed with a 0.2 ratio gap: %+v", d)
		}
	})

	t.Run("false delivery fails unconditionally", func(t *testing.T) {
		run := fakeRun(EngineLive, 0.9, expected, map[core.EventID][]sim.NodeID{
			1: {1, 2, 3}, 2: {1, 2},
		})
		run.FalseDeliveries = 1
		d := diffRuns(ref, run, 0.1)
		if d.Pass {
			t.Errorf("diff passed with a false delivery: %+v", d)
		}
	})
}

func TestRecorderFalseDeliveryDetection(t *testing.T) {
	rec := newRecorder()
	sub, err := filter.ParseSubscription("x>100 && x<200")
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.subscribe(1, sub); err != nil {
		t.Fatal(err)
	}
	ev, err := filter.ParseEvent("x=150, y=3")
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 matches and is alive; node 2 never matched.
	rec.publish(1, ev, func(sim.NodeID) bool { return true }, 0)
	rec.log(1).deliver(1, 0)
	rec.log(2).deliver(1, 0)
	events, expectedPairs, deliveredPairs, falseDeliveries := rec.deliverySummary()
	if events != 1 || expectedPairs != 1 || deliveredPairs != 1 || falseDeliveries != 1 {
		t.Errorf("summary = %d events, %d expected, %d delivered, %d false; want 1, 1, 1, 1",
			events, expectedPairs, deliveredPairs, falseDeliveries)
	}
}

// TestEngineContractParity exercises every engine's population surface
// directly — ids from 1, a dead node's nil snapshot, restart re-issuing
// durable subscriptions, join allocating the next id, leave withdrawing —
// without a full scenario. It advances by logical steps, so the sim
// engine steps where the live engines wait on their clocks.
func TestEngineContractParity(t *testing.T) {
	for _, name := range EngineNames() {
		t.Run(name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.TickEvery = time.Millisecond
			opts.SubsPerNode = 1
			e, err := newEngine(name, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()

			a, b := e.AddNode(), e.AddNode()
			if a != 1 || b != 2 {
				t.Fatalf("ids = %d, %d; want 1, 2", a, b)
			}
			sub, _ := filter.ParseSubscription("x>1 && x<500")
			if err := e.Subscribe(a, sub); err != nil {
				t.Fatal(err)
			}
			if got := e.AliveCount(); got != 2 {
				t.Fatalf("AliveCount = %d", got)
			}

			e.Kill(a)
			if got := e.AliveIDs(); len(got) != 1 || got[0] != b {
				t.Fatalf("AliveIDs after kill = %v", got)
			}
			if snaps := e.StructuralSnapshot(a); snaps != nil {
				t.Error("snapshot of a dead node is non-nil")
			}

			e.Restart(a)
			if !contains(e.AliveIDs(), a) {
				t.Fatal("restart did not revive the identity")
			}
			// The durable subscription came back with the fresh instance.
			deadline := time.Now().Add(5 * time.Second)
			var snaps []core.MembershipSnapshot
			for time.Now().Before(deadline) {
				if snaps = e.StructuralSnapshot(a); len(snaps) > 0 {
					break
				}
				e.AwaitStep(e.Now() + 1)
			}
			total := 0
			for _, s := range snaps {
				total += s.Subs
			}
			if total != 1 {
				t.Errorf("restarted node serves %d subscriptions, want 1", total)
			}

			j := e.Join()
			if j != 3 {
				t.Errorf("join id = %d, want 3", j)
			}
			e.Leave(j)
			if len(e.nodes[j].subs) != 0 {
				t.Error("leave kept durable subscriptions")
			}
		})
	}
}

// TestVariantReachesEveryRuntime pins that Options.Config reaches the
// nodes of every engine, not only the cycle engine's: nested
// subscriptions cover on a leader-mode node and leave an epidemic node's
// covering table empty (epidemic nodes never cover).
func TestVariantReachesEveryRuntime(t *testing.T) {
	epidemic := ConfigSpec{Name: "epidemic root", Traversal: core.RootBased, Comm: core.Epidemic}
	for _, name := range EngineNames() {
		for _, spec := range []ConfigSpec{DefaultOptions().Config, epidemic} {
			t.Run(name+"/"+spec.Name, func(t *testing.T) {
				opts := DefaultOptions()
				opts.TickEvery = time.Millisecond
				opts.Config = spec
				e, err := newEngine(name, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				for i := 0; i < 4; i++ {
					e.AddNode()
				}
				for _, expr := range []string{"a>10", "a>20", "a>2"} { // covering stop, then widening
					sub, err := filter.ParseSubscription(expr)
					if err != nil {
						t.Fatal(err)
					}
					if err := e.Subscribe(1, sub); err != nil {
						t.Fatal(err)
					}
				}
				e.AwaitStep(e.Now() + 100)
				covered := 0
				if err := e.Do(1, func(n *core.Node) { covered = len(n.CoverTable()) }); err != nil {
					t.Fatal(err)
				}
				switch {
				case spec.Comm == core.Epidemic && covered != 0:
					t.Errorf("epidemic node covers %d subscriptions", covered)
				case spec.Comm == core.LeaderBased && covered == 0:
					t.Error("leader node covers nothing — the check is vacuous")
				}
			})
		}
	}
}

// TestLiveInboxDropsSurviveRestart pins that Stats counts the inbox drops
// of every incarnation: flooding a one-slot inbox overflows it, and
// killing and restarting the nodes must not lose the count.
func TestLiveInboxDropsSurviveRestart(t *testing.T) {
	gen := workload.MustGenerator(workload.Workload2(), 1)
	rt := newLiveRuntime(livenet.Config{TickEvery: time.Millisecond, InboxSize: 1, Seed: 1})
	e := engineOn(EngineLive, rt, DefaultOptions().Config, gen, 1)
	defer e.Close()

	a, b := e.AddNode(), e.AddNode()
	sub, _ := filter.ParseSubscription("x>1 && x<500")
	for _, id := range []sim.NodeID{a, b} {
		if err := e.Subscribe(id, sub); err != nil {
			t.Fatal(err)
		}
	}
	event, _ := filter.ParseEvent("x=100")
	evs := make([]core.EventID, 200)
	events := make([]filter.Event, len(evs))
	var before int64
	for round := 0; round < 100 && before == 0; round++ {
		e.AwaitStep(e.Now() + 1)
		for i := range evs {
			evs[i], events[i] = core.EventID(round*len(evs)+i+1), event
		}
		if err := e.PublishMany(a, evs, events); err != nil {
			t.Fatal(err)
		}
		before = e.Stats().InboxDropped
	}
	if before == 0 {
		t.Fatal("flooding a one-slot inbox dropped nothing")
	}
	for _, id := range []sim.NodeID{a, b} {
		e.Kill(id)
		e.Restart(id)
	}
	if after := e.Stats().InboxDropped; after < before {
		t.Errorf("InboxDropped fell from %d to %d across a restart", before, after)
	}
}

func contains(ids []sim.NodeID, want sim.NodeID) bool {
	for _, id := range ids {
		if id == want {
			return true
		}
	}
	return false
}

// TestSimReferenceDeterministic pins the claim the differential oracle
// rests on: a run on the sim reference is a pure function of (options,
// scenario), so two runs at one seed marshal to identical reports once
// the wall-clock cost is zeroed.
func TestSimReferenceDeterministic(t *testing.T) {
	opts := Options{Engines: []string{EngineSim}, Scenarios: []string{"restart-churn", "corruption"}}
	report := func() []byte {
		res, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		return replayReport(t, res)
	}
	first, second := report(), report()
	if string(first) == string(second) {
		return
	}
	i := 0
	for i < len(first) && i < len(second) && first[i] == second[i] {
		i++
	}
	lo := max(0, i-80)
	t.Errorf("two sim runs at one seed differ at byte %d:\n  %s\n  %s",
		i, first[lo:min(len(first), i+80)], second[lo:min(len(second), i+80)])
}
