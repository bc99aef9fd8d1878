package experiments

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/dps-overlay/dps/internal/conform"
	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
	"github.com/dps-overlay/dps/internal/workload"
)

// leaderRoot is the paper's default variant, under which nodes cover.
var leaderRoot = conform.ConfigSpec{Name: "leader root", Traversal: core.RootBased, Comm: core.LeaderBased}

// TestCoverDeliverySoundness is the randomized property test of
// covering: for several seeds, a settled leader-mode overlay publishes an
// event stream, and the (event, node) pairs notified must be exactly the
// oracle's expected set — every live subscriber whose subscription
// matches (filter.Includes over the subscription mirror), nothing more,
// each once. A covered subscription rides on a strictly wider group, so
// every event matching it reaches the carrying member. The run is
// churn-free so the comparison is exact.
func TestCoverDeliverySoundness(t *testing.T) {
	for _, seed := range []int64{2, 13, 41} {
		e := conform.NewSimEngine(leaderRoot, seed, 0, workload.MustGenerator(workload.Workload2(), seed), 2, nil)
		if err := e.Bootstrap(70, 25); err != nil {
			t.Fatal(err)
		}
		// Full quiescence before publishing: the comparison is exact only
		// when no walk is still in flight.
		e.Run(150)
		rng := rand.New(rand.NewSource(seed ^ 0xc0ffee))
		var events []core.EventID
		for step := 1; step <= 200; step++ {
			if step%8 == 0 {
				events = append(events, e.PublishTracked(rng))
			}
			e.Run(1)
		}
		e.Run(60)
		// The recorder logs every notification: ones outside the expected
		// set and repeated ones as well.
		matched := 0
		for _, ev := range events {
			want, got := e.Expected(ev), e.Delivered(ev)
			if len(want) > 0 {
				matched++
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d event %d: notified %v, oracle expects %v", seed, ev, got, want)
			}
		}
		if matched == 0 {
			t.Fatalf("seed %d: no event had a matching subscriber — scenario proves nothing", seed)
		}
		if n := e.Repeats(); n != 0 {
			t.Errorf("seed %d: %d repeated notifications", seed, n)
		}
		if r := e.Ratio(); r != 1 {
			t.Errorf("seed %d: delivery ratio %v, want 1", seed, r)
		}

		// The run must actually cover — otherwise the checks above say
		// nothing about covering — and every cover edge must satisfy the
		// Includes oracle structurally.
		edges := 0
		for _, id := range e.AliveIDs() {
			byKey := make(map[string]core.MembershipSnapshot)
			for _, snap := range e.StructuralSnapshot(id) {
				byKey[snap.Key] = snap
			}
			for key, edge := range coverTable(t, e, id) {
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
		t.Logf("seed %d: %d cover edges, notified set equals the oracle's (%d events)", seed, edges, matched)
	}
}

// coverTable reads one node's covering table.
func coverTable(t *testing.T, e *conform.Engine, id sim.NodeID) map[string]core.CoverEdge {
	t.Helper()
	var table map[string]core.CoverEdge
	if err := e.Do(id, func(n *core.Node) { table = n.CoverTable() }); err != nil {
		t.Fatal(err)
	}
	return table
}

// nestedPopulation gives n fresh nodes perNode generator subscriptions
// each and settles the overlay. A node issues its subscriptions in one
// step, widest first, so each one strictly included by another meets the
// covering stop (a narrower filter issued first may already have settled
// in a group of its own — a tree owner's walks complete synchronously —
// and covering never folds a settled group). It returns each node's
// routed filters.
func nestedPopulation(e *conform.Engine, n, perNode int, gen *workload.Generator) map[sim.NodeID][]filter.AttrFilter {
	afs := make(map[sim.NodeID][]filter.AttrFilter, n)
	for i := 0; i < n; i++ {
		id := e.AddNode()
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
			if err := e.Subscribe(id, subs[s]); err != nil {
				panic(err)
			}
		}
		e.Run(1)
	}
	e.Run(200)
	return afs
}

// TestCoverCompactsRoutingState pins what covering buys structurally: on
// a settled leader-mode overlay, a subscription strictly included by
// another of the same node's subscriptions holds no membership of its
// own — it is a cover edge riding on a wider one.
func TestCoverCompactsRoutingState(t *testing.T) {
	gen := workload.MustGenerator(workload.Workload2(), 9)
	e := conform.NewSimEngine(leaderRoot, 9, 0, gen, 3, nil)
	afs := nestedPopulation(e, 120, 3, gen)
	nested := 0
	for id, list := range afs {
		held := make(map[string]bool)
		for _, snap := range e.StructuralSnapshot(id) {
			held[snap.Key] = true
		}
		table := coverTable(t, e, id)
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
	spec := conform.ConfigSpec{Name: "epidemic root", Traversal: core.RootBased, Comm: core.Epidemic}
	e := conform.NewSimEngine(spec, 5, 0, workload.MustGenerator(workload.Workload2(), 5), 0, nil)
	for i := 0; i < 4; i++ {
		e.AddNode()
	}
	var keys []string
	for _, expr := range []string{"a>10", "a>20", "a>2"} { // covering stop, then widening
		sub, err := filter.ParseSubscription(expr)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Subscribe(1, sub); err != nil {
			t.Fatal(err)
		}
		filters, err := filter.SubscriptionFilters(sub)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, filters[0].Key())
	}
	e.Run(100)
	if table := coverTable(t, e, 1); len(table) != 0 {
		t.Errorf("epidemic node covers: %v", table)
	}
	held := make(map[string]bool)
	for _, snap := range e.StructuralSnapshot(1) {
		held[snap.Key] = true
	}
	for _, key := range keys {
		if !held[key] {
			t.Errorf("epidemic node holds no membership for %s (holds %v)", key, held)
		}
	}
}
