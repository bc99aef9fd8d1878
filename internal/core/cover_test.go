package core

import (
	"testing"

	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
)

// Covering-layer unit tests: the directed counterparts to the randomized
// differential suite in internal/experiments. Covering is node-local —
// a node stops propagating a subscription when a filter it already
// routes (or is walking) includes it — so each test drives one node
// through a predictable covering decision and asserts the covering
// table, the suppressed groups and the delivered sets directly.

func coverConfig(cfg *Config) {
	cfg.CoverRouting = true // default comm is leader-based, as required
}

// coverKeys returns the canonical keys of the three chain filters.
func coverKeys(t *testing.T) (wide, mid, narrow string) {
	t.Helper()
	return filter.MustAttrFilter("a", filter.Gt("a", 2)).Key(),
		filter.MustAttrFilter("a", filter.Gt("a", 10)).Key(),
		filter.MustAttrFilter("a", filter.Gt("a", 20)).Key()
}

// buildLocalCoverChain gives node 1 a settled a>10 group and then an
// included a>20 subscription, which must cover locally onto it.
func buildLocalCoverChain(t *testing.T) *cluster {
	t.Helper()
	c := newCluster(t, 3, coverConfig)
	c.subscribe(1, "a>10")
	c.settle(25)
	c.subscribe(1, "a>20")
	c.settle(25)
	return c
}

func TestCoverFoldsIncludedSubscription(t *testing.T) {
	c := buildLocalCoverChain(t)
	_, mid, narrow := coverKeys(t)

	// The a>20 subscription must ride on the routed a>10 entry instead of
	// forming a group of its own.
	if groups := c.groupsOf(); groups[narrow] != nil {
		t.Fatalf("a>20 formed its own group %v — covering did not fold it", groups[narrow])
	}
	table := c.nodes[1].CoverTable()
	if len(table) != 1 {
		t.Fatalf("node 1 covering table = %v, want exactly the a>20 edge", table)
	}
	edge, ok := table[narrow]
	if !ok {
		t.Fatalf("node 1 covering table %v lacks the a>20 entry", table)
	}
	if edge.Coverer != mid {
		t.Errorf("a>20 covered by %q, want the local a>10 membership %q", edge.Coverer, mid)
	}
	if edge.Subs != 1 {
		t.Errorf("cover edge carries %d subs, want 1", edge.Subs)
	}
	// The Includes oracle: the coverer must be a held membership whose
	// filter strictly includes the covered one.
	assertCoverSound(t, c.nodes[1])
	// The covered subscription still counts as subscribed state.
	if subs := c.nodes[1].Subscriptions(); len(subs) != 2 {
		t.Errorf("node 1 Subscriptions() = %v, want a>10 and the covered a>20", subs)
	}
}

func TestCoverWidensInFlightWalk(t *testing.T) {
	// Node 2's a>20 walk is still in flight (node 1 owns the tree, so the
	// walk needs network hops) when the strictly wider a>10 arrives: the
	// narrow walk must fold under the wider filter, routing one entry.
	c := newCluster(t, 3, coverConfig)
	c.subscribe(1, "a>2")
	c.settle(25)
	c.subscribe(2, "a>20")
	c.subscribe(2, "a>10")
	c.settle(40)

	_, mid, narrow := coverKeys(t)
	if groups := c.groupsOf(); groups[narrow] != nil {
		t.Fatalf("a>20 formed its own group %v — widening did not fold the in-flight walk", groups[narrow])
	}
	edge, ok := c.nodes[2].CoverTable()[narrow]
	if !ok {
		t.Fatalf("node 2 covering table = %v, want the a>20 edge", c.nodes[2].CoverTable())
	}
	if edge.Coverer != mid {
		t.Errorf("a>20 covered by %q, want the widened walk %q", edge.Coverer, mid)
	}
	assertCoverSound(t, c.nodes[2])

	in := c.publish(3, "a=15")
	out := c.publish(3, "a=5")
	c.settle(30)
	if !c.delivered[in][2] {
		t.Error("node 2 missed an a>10-matching event after widening")
	}
	if c.delivered[out][2] {
		t.Error("node 2 delivered an event matching neither of its filters")
	}
}

func TestCoverDeliversThroughCoverer(t *testing.T) {
	c := buildLocalCoverChain(t)
	c.subscribe(2, "a>2")
	c.settle(25)

	cases := []struct {
		event string
		want  map[sim.NodeID]bool
	}{
		{"a=30", map[sim.NodeID]bool{1: true, 2: true}},
		{"a=15", map[sim.NodeID]bool{1: true, 2: true}},
		{"a=5", map[sim.NodeID]bool{2: true}}, // not a>10: no false delivery on node 1
		{"a=1", map[sim.NodeID]bool{}},
	}
	for _, tc := range cases {
		id := c.publish(3, tc.event)
		c.settle(30)
		got := c.delivered[id]
		for n := range tc.want {
			if !got[n] {
				t.Errorf("event %s: node %d not delivered (got %v)", tc.event, n, got)
			}
		}
		for n := range got {
			if !tc.want[n] {
				t.Errorf("event %s: false delivery to node %d", tc.event, n)
			}
		}
	}
}

func TestCoverUnsubscribeCoveredLeavesCleanly(t *testing.T) {
	c := buildLocalCoverChain(t)
	_, mid, _ := coverKeys(t)

	// Withdrawing the covered subscription must clear the edge while the
	// coverer membership keeps serving its own subscription.
	if err := c.nodes[1].Unsubscribe(filter.MustSubscription(filter.Gt("a", 20))); err != nil {
		t.Fatalf("unsubscribe covered: %v", err)
	}
	c.settle(25)
	if table := c.nodes[1].CoverTable(); len(table) != 0 {
		t.Errorf("covering table after unsubscribe = %v, want empty", table)
	}
	if groups := c.groupsOf(); groups[mid] == nil {
		t.Errorf("a>10 group gone after withdrawing only the covered a>20")
	}

	// Withdrawing the coverer's subscription too — with no covered edges
	// left — must tear the whole membership down.
	if err := c.nodes[1].Unsubscribe(filter.MustSubscription(filter.Gt("a", 10))); err != nil {
		t.Fatalf("unsubscribe coverer: %v", err)
	}
	c.settle(40)
	// Root-mirror memberships are routing relays and legitimately persist
	// without subscriptions; every non-root membership must be gone.
	for _, snap := range c.nodes[1].StructuralSnapshot() {
		if !snap.IsRoot {
			t.Errorf("node 1 still holds non-root membership %q after withdrawing all subscriptions", snap.Key)
		}
	}
	id := c.publish(2, "a=30")
	c.settle(30)
	if c.delivered[id][1] {
		t.Error("node 1 delivered after unsubscribing everything")
	}
}

func TestCoverUnsubscribeCovererRepropagates(t *testing.T) {
	// Local covering: node 1 creates and directly holds the a>10 group,
	// then adds an included a>20 subscription of its own — which covers
	// locally onto that membership, no walk.
	c := newCluster(t, 2, coverConfig)
	c.subscribe(1, "a>10")
	c.settle(25)
	c.subscribe(1, "a>20")
	c.settle(25)
	_, mid, narrow := coverKeys(t)
	if edge, ok := c.nodes[1].CoverTable()[narrow]; !ok || edge.Coverer != mid {
		t.Fatalf("node 1 covering table = %v, want a>20 covered by the local a>10 membership", c.nodes[1].CoverTable())
	}

	// Withdrawing the coverer's direct subscription un-covers: a>20 must
	// be re-propagated into a routed group of its own before the wide
	// membership is torn down — the covered subscription keeps delivering.
	if err := c.nodes[1].Unsubscribe(filter.MustSubscription(filter.Gt("a", 10))); err != nil {
		t.Fatalf("unsubscribe coverer: %v", err)
	}
	c.settle(60)
	if table := c.nodes[1].CoverTable(); len(table) != 0 {
		t.Errorf("covering table after coverer unsubscribe = %v, want empty (re-propagated)", table)
	}
	found := false
	for _, snap := range c.nodes[1].StructuralSnapshot() {
		if snap.Key == narrow {
			found = true
		}
		if snap.Key == mid && snap.Subs > 0 {
			t.Errorf("a>10 membership still carries direct subs after unsubscribe")
		}
	}
	if !found {
		t.Fatalf("a>20 was not re-propagated into a routed membership; memberships: %v", c.nodes[1].Memberships())
	}

	in := c.publish(2, "a=30")
	out := c.publish(2, "a=15")
	c.settle(30)
	if !c.delivered[in][1] {
		t.Error("node 1 missed a>20-matching event after re-propagation")
	}
	if c.delivered[out][1] {
		t.Error("node 1 delivered an event matching only the withdrawn a>10")
	}
}

// assertCoverSound checks the per-node structural contract of the
// covering table: every coverer key names a held membership whose filter
// strictly includes the covered filter, and no key is simultaneously a
// routed group and a covered entry.
func assertCoverSound(t *testing.T, n *Node) {
	t.Helper()
	byKey := make(map[string]MembershipSnapshot)
	for _, snap := range n.StructuralSnapshot() {
		byKey[snap.Key] = snap
	}
	for key, edge := range n.CoverTable() {
		if _, dup := byKey[key]; dup {
			t.Errorf("key %q is both a routed membership and a covered entry", key)
		}
		coverer, ok := byKey[edge.Coverer]
		if !ok {
			t.Errorf("cover edge %q -> %q: coverer membership not held", key, edge.Coverer)
			continue
		}
		if !coverer.AF.StrictlyIncludes(edge.Covered) {
			t.Errorf("coverer %q does not strictly include covered %q", edge.Coverer, key)
		}
	}
}
