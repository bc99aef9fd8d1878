package core

import (
	"testing"

	"github.com/dps-overlay/dps/internal/filter"
)

// TestStructuralSnapshotIsDeepCopy pins the snapshot contract: the result
// is in canonical key order, reflects the membership state, and shares no
// mutable storage with the node.
func TestStructuralSnapshotIsDeepCopy(t *testing.T) {
	c := newCluster(t, 3, nil)
	c.subscribe(1, "a>0 && a<100")
	c.settle(20)
	c.subscribe(2, "a>10 && a<50")
	c.settle(60)

	snaps := c.nodes[1].StructuralSnapshot()
	if len(snaps) == 0 {
		t.Fatal("owner has no memberships")
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i-1].Key >= snaps[i].Key {
			t.Fatalf("snapshots out of canonical order: %q !< %q", snaps[i-1].Key, snaps[i].Key)
		}
	}
	var root *MembershipSnapshot
	for i := range snaps {
		if snaps[i].IsRoot {
			root = &snaps[i]
		}
	}
	if root == nil {
		t.Fatal("owner snapshot misses the root membership")
	}
	if root.Leader != 1 || !root.AF.IsUniversal() || root.AF.Attr() != "a" {
		t.Fatalf("root snapshot wrong: %+v", root)
	}
	if len(root.Branches) == 0 {
		t.Fatal("root snapshot misses the child branch")
	}

	// Mutating the snapshot must not touch node state.
	m := c.nodes[1].group(root.Key)
	wantMembers := len(m.members.ids())
	root.Members = append(root.Members, 999)
	root.Branches[0].Nodes = append(root.Branches[0].Nodes[:0], 999)
	if got := len(m.members.ids()); got != wantMembers {
		t.Error("snapshot aliases the membership view")
	}
	for _, b := range m.branches.vals {
		for _, n := range b.Nodes {
			if n == 999 {
				t.Error("snapshot aliases branch contacts")
			}
		}
	}
	if c.nodes[2].StructuralSnapshot()[0].Subs != 1 {
		t.Error("subscription count missing from snapshot")
	}
}

// TestLeadershipDeferenceCycleRepair pins the resolution of crossed
// leadership: two members each believing the other leads would bounce
// any third party's walk between themselves forever; the lower id
// anchors on the first bounce and the walk settles.
func TestLeadershipDeferenceCycleRepair(t *testing.T) {
	key := filter.MustAttrFilter("a", filter.Gt("a", 10), filter.Lt("a", 20)).Key()
	c := newCluster(t, 4, nil)
	c.subscribe(1, "a>0") // owner
	c.settle(20)
	c.subscribe(2, "a>10 && a<20")
	c.settle(40)
	c.subscribe(3, "a>10 && a<20")
	c.settle(40)
	m2, m3 := c.nodes[2].group(key), c.nodes[3].group(key)
	if m2 == nil || m3 == nil {
		t.Fatal("group did not form at both members")
	}
	// Force the pathological crossed state the chaos harness found: each
	// believes the other leads.
	m2.leader, m3.leader = 3, 2
	// A third party's walk into the group forces the bounce.
	c.subscribe(4, "a>10 && a<20")
	c.settle(120)

	if m2.leader != m3.leader {
		t.Fatalf("leadership still crossed after repair: m2→%d m3→%d", m2.leader, m3.leader)
	}
	if m2.leader != 2 {
		t.Fatalf("cycle resolved to %d, want the lower id 2", m2.leader)
	}
	if m4 := c.nodes[4].group(key); m4 == nil || m4.state != stateActive {
		t.Fatal("third party's walk did not settle after the cycle resolved")
	}
}
