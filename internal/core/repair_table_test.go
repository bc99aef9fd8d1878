package core

import (
	"testing"

	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
)

// Table-driven edge cases for the repair subsystem's promotion and merge
// machinery (§4.3): root crash with a single child, simultaneous sibling
// crashes, and the merge of diverged group views. The chaos harness
// (internal/chaos) exercises these paths statistically; the cases here
// pin each one at unit level.

// repairCase is one scripted fault drama: build an overlay, break it,
// settle, then check the structural and delivery postconditions.
type repairCase struct {
	name  string
	build func(t *testing.T, c *cluster)
	fault func(t *testing.T, c *cluster)
	// settle is the repair window in steps (heartbeat timeouts plus
	// anti-entropy rounds).
	settle int
	check  func(t *testing.T, c *cluster)
}

// liveLeadersOf returns the distinct leaders live members of the keyed
// group believe in (excluding the unknown leader 0).
func liveLeadersOf(c *cluster, key string) map[sim.NodeID]bool {
	leaders := map[sim.NodeID]bool{}
	for id, node := range c.nodes {
		if !c.engine.Alive(id) {
			continue
		}
		if m := node.group(key); m != nil && m.leader != 0 {
			leaders[m.leader] = true
		}
	}
	return leaders
}

// assertDelivered publishes from a live node and requires delivery at
// every listed live subscriber.
func assertDelivered(t *testing.T, c *cluster, evText string, want []sim.NodeID) {
	t.Helper()
	var publisher sim.NodeID
	for _, id := range c.engine.AliveIDs() {
		publisher = id
		break
	}
	evID := c.publish(publisher, evText)
	c.settle(60)
	for _, id := range want {
		if c.engine.Alive(id) && !c.delivered[evID][id] {
			t.Errorf("live subscriber %d missed %q after repair", id, evText)
		}
	}
}

func repairCases() []repairCase {
	return []repairCase{
		{
			// The tightest promotion edge: the tree has exactly one other
			// participant. When the root owner crashes, the single child —
			// recruited as co-owner when its walk passed the root — must
			// take the tree over: claim ownership, promote itself and keep
			// routing, with no second mirror to fall back on.
			name: "root crash with single child",
			build: func(t *testing.T, c *cluster) {
				c.subscribe(1, "a>0 && a<100") // node 1 claims the tree
				c.settle(20)
				c.subscribe(2, "a>10 && a<50") // the only child
				c.settle(60)
			},
			fault: func(t *testing.T, c *cluster) {
				owner, ok := c.dir.Owner("a")
				if !ok {
					t.Fatal("tree has no owner before the fault")
				}
				if owner != 1 {
					t.Fatalf("unexpected owner %d", owner)
				}
				c.engine.Kill(owner)
			},
			settle: 600,
			check: func(t *testing.T, c *cluster) {
				owner, ok := c.dir.Owner("a")
				if !ok || !c.engine.Alive(owner) {
					t.Fatalf("tree ownership not reclaimed by the single child (owner=%d ok=%v)", owner, ok)
				}
				assertDelivered(t, c, "a=20", []sim.NodeID{2})
			},
		},
		{
			// Two sibling groups lose their only members in the same step.
			// The parent must prune both branches (or survive their
			// staleness), and a fresh subscriber walking into one of the
			// dead filters must settle — no walk may dead-end in a branch
			// whose every contact is a corpse.
			name: "simultaneous sibling crashes",
			build: func(t *testing.T, c *cluster) {
				c.subscribe(1, "a>0 && a<1000") // parent group + tree owner
				c.settle(20)
				c.subscribe(2, "a>10 && a<100")  // sibling A, sole member
				c.subscribe(3, "a>200 && a<300") // sibling B, sole member
				c.settle(60)
				c.subscribe(4, "a>0 && a<900") // keeps the parent populated
				c.settle(60)
			},
			fault: func(t *testing.T, c *cluster) {
				c.engine.Kill(2)
				c.engine.Kill(3)
			},
			settle: 400,
			check: func(t *testing.T, c *cluster) {
				// A fresh subscriber re-creates sibling A's spot.
				c.addNode(99, nil)
				c.subscribe(99, "a>10 && a<100")
				c.settle(300)
				key := filter.MustAttrFilter("a",
					filter.Gt("a", 10), filter.Lt("a", 100)).Key()
				m := c.nodes[99].group(key)
				if m == nil || m.state != stateActive {
					t.Fatalf("fresh subscriber stuck joining the crashed siblings' spot (m=%+v)", m)
				}
				assertDelivered(t, c, "a=50", []sim.NodeID{1, 4, 99})
			},
		},
		{
			// Duplicate instances of one group with diverged views: 2 and 3
			// race to create the same filter, then 4 and 5 join whichever
			// instance their walk reaches. The §4.2.2 merge must fold the
			// views into one instance with one leader that knows every
			// member, and deliver to all of them.
			name: "merge of diverged group views",
			build: func(t *testing.T, c *cluster) {
				c.subscribe(1, "a>0") // owner + top group
				c.settle(10)
				c.subscribe(2, "a>10 && a<20") // race: both may CREATE
				c.subscribe(3, "a>10 && a<20")
				c.settle(2) // barely settled: instances still diverged
				c.subscribe(4, "a>10 && a<20")
				c.subscribe(5, "a>10 && a<20")
				c.settle(10)
			},
			fault: func(t *testing.T, c *cluster) {
				// The fault IS the divergence; nothing crashes.
			},
			settle: 400,
			check: func(t *testing.T, c *cluster) {
				key := filter.MustAttrFilter("a",
					filter.Gt("a", 10), filter.Lt("a", 20)).Key()
				leaders := liveLeadersOf(c, key)
				if len(leaders) != 1 {
					t.Fatalf("diverged instances kept %d leaders: %v", len(leaders), leaders)
				}
				var leaderID sim.NodeID
				for id := range leaders {
					leaderID = id
				}
				lm := c.nodes[leaderID].group(key)
				if lm == nil {
					t.Fatalf("leader %d does not hold the merged group", leaderID)
				}
				for _, member := range []sim.NodeID{2, 3, 4, 5} {
					if !lm.members.has(member) {
						t.Errorf("merged leader %d's view lost member %d: %v",
							leaderID, member, lm.members.ids())
					}
				}
				assertDelivered(t, c, "a=15", []sim.NodeID{2, 3, 4, 5})
			},
		},
	}
}

// TestRepairEdgeCases drives every scripted repair drama.
func TestRepairEdgeCases(t *testing.T) {
	for _, tc := range repairCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 5, nil)
			tc.build(t, c)
			tc.fault(t, c)
			c.settle(tc.settle)
			tc.check(t, c)
		})
	}
}
