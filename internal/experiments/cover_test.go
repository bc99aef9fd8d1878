package experiments

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/metrics"
	"github.com/dps-overlay/dps/internal/workload"
)

// TestCoverDeliverySoundness is the randomized differential property test
// of the covering layer: for several seeds, the same subscription plan
// and event stream run once with CoverRouting off (reference) and once
// with it on. Covering only compacts routing state — the delivered
// (event, node) sets must be identical, with filter.Includes as the
// implicit oracle (a covered subscription rides on a strictly wider
// group, so every event matching it reaches the carrying member). The
// run is churn-free so the comparison is exact: with kills, in-flight
// deliveries may legitimately race the fault differently in the two
// protocols.
func TestCoverDeliverySoundness(t *testing.T) {
	for _, seed := range []int64{2, 13, 41} {
		type trace struct {
			delivered map[metrics.EventID][]int64
			ratio     float64
		}
		var coveredCluster *Cluster
		run := func(cover bool) trace {
			c := NewCluster(ConfigSpec{
				Name:      "leader root",
				Traversal: core.RootBased,
				Comm:      core.LeaderBased,
				Cover:     cover,
			}, seed)
			gen := workload.MustGenerator(workload.Workload2(), seed)
			c.SubscribePopulation(70, 2, 25, gen)
			// Full quiescence before publishing: the comparison is exact
			// only when neither run still has walks in flight — a pending
			// publication expiring against a slow join is a delivery
			// difference of the join schedule, not of the covering layer.
			c.Engine.Run(150)
			rng := rand.New(rand.NewSource(seed ^ 0xc0ffee))
			for step := 1; step <= 200; step++ {
				if step%8 == 0 {
					c.PublishTracked(gen.Event(), rng.Int63())
				}
				c.Engine.Step()
			}
			c.Engine.Run(60)
			if cover {
				coveredCluster = c
			}
			return trace{delivered: c.Tracker.DeliveredPairs(), ratio: c.Tracker.Ratio()}
		}
		want := run(false)
		if len(want.delivered) == 0 {
			t.Fatalf("seed %d: reference run delivered nothing — scenario proves nothing", seed)
		}
		got := run(true)
		if !reflect.DeepEqual(want.delivered, got.delivered) {
			for ev, nodes := range want.delivered {
				if !reflect.DeepEqual(nodes, got.delivered[ev]) {
					t.Errorf("seed %d event %d: delivered %v uncovered vs %v covered",
						seed, ev, nodes, got.delivered[ev])
				}
			}
		}
		if want.ratio != got.ratio {
			t.Errorf("seed %d: delivery ratio %v covered != %v uncovered", seed, got.ratio, want.ratio)
		}

		// The run must actually cover — otherwise the equality above is
		// vacuous — and every cover edge must satisfy the Includes oracle
		// structurally.
		edges := 0
		for id, node := range coveredCluster.Nodes {
			if !coveredCluster.Engine.Alive(id) {
				continue
			}
			byKey := make(map[string]core.MembershipSnapshot)
			for _, snap := range node.StructuralSnapshot() {
				byKey[snap.Key] = snap
			}
			for key, edge := range node.CoverTable() {
				edges++
				coverer, ok := byKey[edge.Coverer]
				if !ok {
					t.Errorf("seed %d node %d: cover edge %q -> %q names a membership the node does not hold",
						seed, id, key, edge.Coverer)
					continue
				}
				if !coverer.AF.StrictlyIncludes(edge.Covered) {
					t.Errorf("seed %d node %d: coverer %q does not strictly include %q",
						seed, id, edge.Coverer, key)
				}
			}
		}
		if edges == 0 {
			t.Errorf("seed %d: covered run produced no cover edges — differential comparison vacuous", seed)
		}
		t.Logf("seed %d: %d cover edges, identical delivered sets (%d events, ratio %.4f)",
			seed, edges, len(want.delivered), want.ratio)
	}
}

// TestCoverCompactsRoutingState pins the point of the layer: with
// covering on, the same workload must hold measurably less routing state
// and push fewer inter-group tree forwards than without it.
func TestCoverCompactsRoutingState(t *testing.T) {
	run := func(cover bool) (bytesPerNode float64, forwards int64) {
		c := NewCluster(ConfigSpec{
			Name:      "leader root",
			Traversal: core.RootBased,
			Comm:      core.LeaderBased,
			Cover:     cover,
		}, 9)
		gen := workload.MustGenerator(workload.Workload2(), 9)
		c.SubscribePopulation(120, 2, 25, gen)
		before := c.TreeForwards()
		rng := rand.New(rand.NewSource(17))
		for step := 1; step <= 150; step++ {
			if step%5 == 0 {
				c.PublishTracked(gen.Event(), rng.Int63())
			}
			c.Engine.Step()
		}
		c.Engine.Run(50)
		return c.RoutingBytesPerNode(), c.TreeForwards() - before
	}
	offBytes, offFwd := run(false)
	onBytes, onFwd := run(true)
	if onBytes >= offBytes {
		t.Errorf("routing state not compacted: %.1f bytes/node covered vs %.1f uncovered", onBytes, offBytes)
	}
	if onFwd >= offFwd {
		t.Errorf("fan-out not suppressed: %d tree forwards covered vs %d uncovered", onFwd, offFwd)
	}
	t.Logf("routing bytes/node %.1f -> %.1f (%.1f%%), tree forwards %d -> %d (%.1f%%)",
		offBytes, onBytes, 100*onBytes/offBytes, offFwd, onFwd, 100*float64(onFwd)/float64(offFwd))
}

// TestCoverChurnWaveEndsClean drives the covering layer through the
// churn-wave chaos preset — joins and graceful leaves racing repairs —
// the regime where unsubscribe must un-cover and re-propagate correctly
// (including the raced-leave exits in the join machinery). The scenario
// must end invariant-clean within its repair bound, with delivery intact.
func TestCoverChurnWaveEndsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenario is long; skipped with -short")
	}
	opts := chaosTestOptions()
	opts.Scenarios = []string{"churn-wave"}
	opts.Config.Cover = true
	res, err := RunChaos(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Scenarios {
		if !s.FinalClean {
			t.Errorf("%s (covered): final sweep dirty: %d violations %v; sample %+v",
				s.Scenario, s.FinalCheck.Total, s.FinalCheck.ByInvariant, s.FinalCheck.Sample)
		}
		if !s.WithinBound {
			t.Errorf("%s (covered): repair bound %d exceeded (ttr max %d, %d unrepaired)",
				s.Scenario, s.MaxTTR, s.TTR.Max, len(s.Unrepaired))
		}
		if s.DeliveryRatio < 0.5 {
			t.Errorf("%s (covered): delivery ratio %.3f collapsed", s.Scenario, s.DeliveryRatio)
		}
	}
}

// TestCoverRejectsEpidemic pins the loud-failure contract: covering
// relies on leader-diffused groups, so both the node constructor and the
// chaos runner must refuse epidemic configurations.
func TestCoverRejectsEpidemic(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Directory = core.NewSharedDirectory()
	cfg.Comm = core.Epidemic
	cfg.CoverRouting = true
	if _, err := core.NewNode(cfg); err == nil {
		t.Error("NewNode accepted CoverRouting with epidemic communication")
	}
	opts := DefaultChaosOptions()
	opts.Config = ConfigSpec{Name: "epidemic root", Traversal: core.RootBased, Comm: core.Epidemic, Cover: true}
	if _, err := RunChaos(opts); err == nil {
		t.Error("RunChaos accepted a covered epidemic config")
	}
}
