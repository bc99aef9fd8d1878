package experiments

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/metrics"
	"github.com/dps-overlay/dps/internal/sim"
	"github.com/dps-overlay/dps/internal/workload"
)

// leaderRoot is the paper's default variant, under which nodes cover.
var leaderRoot = ConfigSpec{Name: "leader root", Traversal: core.RootBased, Comm: core.LeaderBased}

// TestCoverDeliverySoundness is the randomized property test of
// covering: for several seeds, a settled leader-mode cluster publishes an
// event stream, and the (event, node) pairs notified must be exactly the
// oracle's expected set — every live subscriber whose subscription
// matches (filter.Includes over the subscription mirror), nothing more.
// A covered subscription rides on a strictly wider group, so every event
// matching it reaches the carrying member. The run is churn-free so the
// comparison is exact.
func TestCoverDeliverySoundness(t *testing.T) {
	for _, seed := range []int64{2, 13, 41} {
		c := NewCluster(leaderRoot, seed)
		gen := workload.MustGenerator(workload.Workload2(), seed)
		c.SubscribePopulation(70, 2, 25, gen)
		// Every notification, including ones outside the expected set
		// (which the tracker ignores) or repeated ones.
		notified := make(map[metrics.EventID][]int64)
		for id, node := range c.Nodes {
			id := id
			node.OnDeliverHook(func(ev core.EventID, _ filter.Event) {
				notified[metrics.EventID(ev)] = append(notified[metrics.EventID(ev)], int64(id))
				c.Tracker.DeliverAt(metrics.EventID(ev), int64(id), c.Engine.Now())
			})
		}
		// Full quiescence before publishing: the comparison is exact only
		// when no walk is still in flight.
		c.Engine.Run(150)
		expected := make(map[metrics.EventID][]int64)
		rng := rand.New(rand.NewSource(seed ^ 0xc0ffee))
		for step := 1; step <= 200; step++ {
			if step%8 == 0 {
				ev := gen.Event()
				id := c.PublishTracked(ev, rng.Int63())
				for m := range c.Oracle.MatchingMembers(ev) {
					expected[metrics.EventID(id)] = append(expected[metrics.EventID(id)], int64(m))
				}
			}
			c.Engine.Step()
		}
		c.Engine.Run(60)
		if len(expected) == 0 {
			t.Fatalf("seed %d: no event had a matching subscriber — scenario proves nothing", seed)
		}
		for _, pairs := range []map[metrics.EventID][]int64{expected, notified} {
			for _, nodes := range pairs {
				sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
			}
		}
		if !reflect.DeepEqual(notified, expected) {
			for ev, nodes := range expected {
				if !reflect.DeepEqual(nodes, notified[ev]) {
					t.Errorf("seed %d event %d: notified %v, oracle expects %v", seed, ev, notified[ev], nodes)
				}
			}
			for ev, nodes := range notified {
				if _, ok := expected[ev]; !ok {
					t.Errorf("seed %d event %d: notified %v, oracle expects nobody", seed, ev, nodes)
				}
			}
		}
		if got := c.Tracker.DeliveredPairs(); !reflect.DeepEqual(got, expected) {
			t.Errorf("seed %d: tracker delivered set differs from the oracle's", seed)
		}
		if r := c.Tracker.Ratio(); r != 1 {
			t.Errorf("seed %d: delivery ratio %v, want 1", seed, r)
		}

		// The run must actually cover — otherwise the checks above say
		// nothing about covering — and every cover edge must satisfy the
		// Includes oracle structurally.
		edges := 0
		for id, node := range c.Nodes {
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
			t.Errorf("seed %d: no cover edges — covering was not exercised", seed)
		}
		t.Logf("seed %d: %d cover edges, notified set equals the oracle's (%d events)", seed, edges, len(expected))
	}
}

// nestedPopulation gives n fresh nodes perNode generator subscriptions
// each and settles the overlay. A node issues its subscriptions in one
// step, widest first, so each one strictly included by another meets the
// covering stop (a narrower filter issued first may already have settled
// in a group of its own — a tree owner's walks complete synchronously —
// and covering never folds a settled group). It returns each node's
// routed filters.
func nestedPopulation(c *Cluster, n, perNode int, gen *workload.Generator) map[sim.NodeID][]filter.AttrFilter {
	afs := make(map[sim.NodeID][]filter.AttrFilter, n)
	for i := 0; i < n; i++ {
		id := c.AddNode()
		subs := make([]filter.Subscription, perNode)
		for s := range subs {
			subs[s] = gen.Subscription()
			filters, err := filter.SubscriptionFilters(subs[s])
			if err != nil {
				panic(err)
			}
			afs[id] = append(afs[id], filters[0])
		}
		// A filter strictly includes more of the node's filters than any
		// filter it includes, so this count orders them widest first.
		included := make([]int, perNode)
		for s, a := range afs[id] {
			for _, b := range afs[id] {
				if a.Attr() == b.Attr() && a.StrictlyIncludes(b) {
					included[s]++
				}
			}
		}
		order := make([]int, perNode)
		for s := range order {
			order[s] = s
		}
		sort.SliceStable(order, func(x, y int) bool { return included[order[x]] > included[order[y]] })
		for _, s := range order {
			if err := c.Subscribe(id, subs[s]); err != nil {
				panic(err)
			}
		}
		c.Engine.Step()
	}
	c.Engine.Run(200)
	return afs
}

// TestCoverCompactsRoutingState pins what covering buys structurally: on
// a settled leader-mode cluster, a subscription strictly included by
// another of the same node's subscriptions holds no membership of its
// own — it is a cover edge riding on a wider one.
func TestCoverCompactsRoutingState(t *testing.T) {
	c := NewCluster(leaderRoot, 9)
	afs := nestedPopulation(c, 120, 3, workload.MustGenerator(workload.Workload2(), 9))
	nested := 0
	for id, list := range afs {
		node := c.Nodes[id]
		held := make(map[string]bool)
		for _, snap := range node.StructuralSnapshot() {
			held[snap.Key] = true
		}
		table := node.CoverTable()
		for _, narrow := range list {
			for _, wide := range list {
				if wide.Attr() != narrow.Attr() || !wide.StrictlyIncludes(narrow) {
					continue
				}
				nested++
				if _, ok := table[narrow.Key()]; !ok {
					t.Errorf("node %d: %v is included by its %v but is not a cover edge (table %v)",
						id, narrow, wide, table)
				}
				if held[narrow.Key()] {
					t.Errorf("node %d: %v is included by its %v but holds a membership", id, narrow, wide)
				}
				break
			}
		}
	}
	if nested == 0 {
		t.Fatal("no node holds nested subscriptions — the check is vacuous")
	}
	t.Logf("%d nested subscriptions, all covered", nested)
}

// TestCoverSkipsEpidemic pins that epidemic nodes never cover: a covered
// member would have no deterministic delivery path under gossip, so a
// node holding nested subscriptions routes each in a membership of its
// own and keeps an empty covering table.
func TestCoverSkipsEpidemic(t *testing.T) {
	c := NewCluster(ConfigSpec{Name: "epidemic root", Traversal: core.RootBased, Comm: core.Epidemic}, 5)
	for i := 0; i < 4; i++ {
		c.AddNode()
	}
	var keys []string
	for _, expr := range []string{"a>10", "a>20", "a>2"} { // covering stop, then widening
		sub, err := filter.ParseSubscription(expr)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Subscribe(1, sub); err != nil {
			t.Fatal(err)
		}
		filters, err := filter.SubscriptionFilters(sub)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, filters[0].Key())
	}
	c.Engine.Run(100)
	node := c.Nodes[1]
	if table := node.CoverTable(); len(table) != 0 {
		t.Errorf("epidemic node covers: %v", table)
	}
	held := make(map[string]bool)
	for _, snap := range node.StructuralSnapshot() {
		held[snap.Key] = true
	}
	for _, key := range keys {
		if !held[key] {
			t.Errorf("epidemic node holds no membership for %s (holds %v)", key, held)
		}
	}
}
