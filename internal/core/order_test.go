package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/dps-overlay/dps/internal/sim"
)

// assertDeliveryIndex checks that a node's delivery index holds precisely
// its live subscriptions, direct and covered, as multisets of identities.
func assertDeliveryIndex(t *testing.T, id sim.NodeID, n *Node) {
	t.Helper()
	indexed := map[string]int{}
	for attr, list := range n.st.subsByAttr {
		if len(list) == 0 {
			t.Fatalf("node %d: empty delivery-index bucket for %q", id, attr)
		}
		for _, e := range list {
			if e.sub[0].Attr != attr {
				t.Fatalf("node %d: subscription %v indexed under %q, first attribute is %q",
					id, e.sub, attr, e.sub[0].Attr)
			}
			indexed[e.id]++
		}
	}
	live := map[string]int{} // direct and covered
	for _, sub := range n.Subscriptions() {
		live[sub.String()]++
	}
	if !reflect.DeepEqual(indexed, live) {
		t.Fatalf("node %d: delivery index %v does not match live subscriptions %v", id, indexed, live)
	}
}

// churnCluster drives a cluster through joins, publications, failures and
// unsubscriptions — every code path that mutates groups or branches.
func churnCluster(t *testing.T, mutate func(*Config)) *cluster {
	t.Helper()
	const nodes = 30
	c := newCluster(t, nodes, mutate)
	rng := rand.New(rand.NewSource(99))
	subs := []string{
		"a>2", "a>2 && a<20", "a>10", "a<5", "a=7",
		"b=x*", "b=*y", "a>2 && b=x*", "c>0", "c>0 && c<100",
	}
	for i := 1; i <= nodes; i++ {
		c.subscribe(sim.NodeID(i), subs[i%len(subs)])
		if i%3 == 0 {
			c.subscribe(sim.NodeID(i), subs[(i+4)%len(subs)])
		}
	}
	c.settle(120)
	for i := 0; i < 10; i++ {
		c.publish(sim.NodeID(1+rng.Intn(nodes)), fmt.Sprintf("a=%d, b=xy, c=%d", rng.Intn(30), rng.Intn(120)))
		c.settle(6)
	}
	// Kill a few nodes to exercise the healing paths.
	c.engine.Kill(3)
	c.engine.Kill(11)
	c.settle(150)
	// Unsubscribe some survivors to exercise leaves and index removal.
	for _, id := range []sim.NodeID{5, 9, 12} {
		node := c.nodes[id]
		for _, sub := range node.Subscriptions() {
			if err := node.Unsubscribe(sub); err != nil {
				t.Fatalf("unsubscribe %d: %v", id, err)
			}
			break
		}
	}
	c.settle(80)
	for i := 0; i < 5; i++ {
		c.publish(sim.NodeID(1+rng.Intn(nodes)), fmt.Sprintf("a=%d, c=%d", rng.Intn(30), rng.Intn(120)))
		c.settle(6)
	}
	return c
}

// TestDeliveryIndexInvariant runs the full protocol through churn and
// asserts the delivery index stayed in sync with the live subscriptions,
// for every live node, in every mode combination.
func TestDeliveryIndexInvariant(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"leader-root", nil},
		{"leader-generic", func(cfg *Config) { cfg.Traversal = Generic }},
		{"epidemic-root", func(cfg *Config) { cfg.Comm = Epidemic; cfg.Fanout = 2; cfg.CrossFanout = 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := churnCluster(t, tc.mutate)
			for id, node := range c.nodes {
				if !c.engine.Alive(id) {
					continue
				}
				assertDeliveryIndex(t, id, node)
			}
		})
	}
}

// TestProtocolTraceDeterminism runs the same seeded scenario twice and
// requires identical contacted/delivered traces: every loop over groups
// and branches runs in the tables' canonical key order.
func TestProtocolTraceDeterminism(t *testing.T) {
	run := func() (map[EventID]map[sim.NodeID]bool, map[EventID]map[sim.NodeID]bool) {
		c := churnCluster(t, nil)
		return c.contacted, c.delivered
	}
	c1, d1 := run()
	c2, d2 := run()
	if !reflect.DeepEqual(c1, c2) {
		t.Fatal("contacted traces differ between identically-seeded runs")
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("delivered traces differ between identically-seeded runs")
	}
}
