package core

import (
	"testing"

	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
)

const phantomBase = sim.NodeID(1 << 30)

// corruptCluster builds the standard corruption fixture: node 1 owns the
// "a" tree, nodes 2 and 3 share the group a>10 && a<20 (2 leads), node 4
// is a live bystander with no memberships.
func corruptCluster(t *testing.T) (*cluster, string) {
	t.Helper()
	c := newCluster(t, 4, nil)
	c.subscribe(1, "a>0")
	c.settle(20)
	c.subscribe(2, "a>10 && a<20")
	c.settle(40)
	c.subscribe(3, "a>10 && a<20")
	c.settle(60)
	key := filter.MustAttrFilter("a", filter.Gt("a", 10), filter.Lt("a", 20)).Key()
	if c.nodes[2].group(key) == nil || c.nodes[3].group(key) == nil {
		t.Fatal("fixture group did not form at both members")
	}
	return c, key
}

func TestCorruptDanglingParentRepairs(t *testing.T) {
	c, key := corruptCluster(t)
	m := c.nodes[2].group(key)
	if !c.nodes[2].ApplyCorruption(CorruptionOp{
		Kind:  CorruptDanglingParent,
		Group: key,
		Peers: []sim.NodeID{phantomBase + 1, phantomBase + 2},
	}) {
		t.Fatal("op reported no mutation")
	}
	if len(m.parent.Nodes) != 2 || m.parent.Nodes[0] != phantomBase+1 {
		t.Fatalf("predview not corrupted: %v", m.parent.Nodes)
	}
	c.settle(400)
	m = c.nodes[2].group(key)
	if m == nil || m.state != stateActive {
		t.Fatal("group lost while repairing the dangling predview")
	}
	if len(m.parent.Nodes) == 0 {
		t.Fatal("predview still empty after repair window")
	}
	for _, p := range m.parent.Nodes {
		if p >= phantomBase {
			t.Fatalf("phantom contact %d survived repair", p)
		}
	}
}

func TestCorruptForgedViewRepairs(t *testing.T) {
	c, key := corruptCluster(t)
	if !c.nodes[3].ApplyCorruption(CorruptionOp{
		Kind:  CorruptForgedView,
		Group: key,
		Peers: []sim.NodeID{phantomBase + 9},
	}) {
		t.Fatal("op reported no mutation")
	}
	if m := c.nodes[3].group(key); m.leader != phantomBase+9 {
		t.Fatalf("leader not forged: %d", m.leader)
	}
	c.settle(500)
	m2, m3 := c.nodes[2].group(key), c.nodes[3].group(key)
	if m3 == nil || m3.state != stateActive {
		t.Fatal("corrupted member fell out of the group")
	}
	if m3.leader >= phantomBase || m3.leader == 0 {
		t.Fatalf("phantom leader survived: %d", m3.leader)
	}
	if m2 != nil && m2.leader != m3.leader {
		t.Fatalf("leadership did not reconverge: m2→%d m3→%d", m2.leader, m3.leader)
	}
	for _, id := range m3.members.ids() {
		if id >= phantomBase {
			t.Fatalf("phantom member %d survived reconciliation", id)
		}
	}
}

func TestCorruptDeferenceCycleRepairs(t *testing.T) {
	c, key := corruptCluster(t)
	if !c.nodes[2].ApplyCorruption(CorruptionOp{Kind: CorruptDeferenceCycle, Group: key}) {
		t.Fatal("op reported no mutation")
	}
	m2, m3 := c.nodes[2].group(key), c.nodes[3].group(key)
	if m2.leader != 3 || m3.leader != 2 {
		t.Fatalf("cycle not forged: m2→%d m3→%d", m2.leader, m3.leader)
	}
	c.settle(400)
	m2, m3 = c.nodes[2].group(key), c.nodes[3].group(key)
	if m2 == nil || m3 == nil {
		t.Fatal("group dissolved while breaking the deference cycle")
	}
	if m2.leader != m3.leader {
		t.Fatalf("leadership still crossed: m2→%d m3→%d", m2.leader, m3.leader)
	}
	if m2.leader != 2 {
		t.Fatalf("cycle anchored to %d, want the lower id 2", m2.leader)
	}
}

func TestCorruptSplitBrainRootRepairs(t *testing.T) {
	c, key := corruptCluster(t)
	if !c.nodes[3].ApplyCorruption(CorruptionOp{Kind: CorruptSplitBrainRoot, Attr: "a"}) {
		t.Fatal("op reported no mutation")
	}
	rootKey := filter.UniversalFilter("a").Key()
	if owner, _ := c.dir.Owner("a"); owner != 3 {
		t.Fatalf("directory ownership not stolen: owner %d", owner)
	}
	if m := c.nodes[3].group(rootKey); m == nil || !m.isRoot || m.leader != 3 {
		t.Fatal("forged root not installed")
	}
	c.settle(500)
	// Exactly one self-acknowledged root must survive, and it must be the
	// directory owner.
	owner, ok := c.dir.Owner("a")
	if !ok {
		t.Fatal("tree lost its owner")
	}
	claimants := 0
	for id, n := range c.nodes {
		if m := n.group(rootKey); m != nil && m.isRoot && m.leader == id {
			claimants++
		}
	}
	if claimants != 1 {
		t.Fatalf("%d self-acknowledged roots after repair, want 1", claimants)
	}
	if m := c.nodes[owner].group(rootKey); m == nil || !m.isRoot || m.leader != owner {
		t.Fatalf("directory owner %d does not lead the surviving root", owner)
	}
	// The subscriber group must have re-attached under the surviving root.
	if m := c.nodes[2].group(key); m == nil || m.state != stateActive || len(m.parent.Nodes) == 0 {
		t.Fatal("subscriber group detached by the root merge")
	}
}

func TestCorruptViewBreakRepairs(t *testing.T) {
	c, key := corruptCluster(t)
	if !c.nodes[2].ApplyCorruption(CorruptionOp{
		Kind:  CorruptViewBreak,
		Group: key,
		Peers: []sim.NodeID{4},
	}) {
		t.Fatal("op reported no mutation")
	}
	m := c.nodes[2].group(key)
	if !m.members.has(4) || !m.coLeaders.has(4) {
		t.Fatal("live non-holder not seated in the views")
	}
	c.settle(400)
	m = c.nodes[2].group(key)
	if m == nil {
		t.Fatal("group dissolved while evicting the forged member")
	}
	if m.members.has(4) || m.coLeaders.has(4) {
		t.Fatalf("non-holder 4 survived the audit: members %v coLeaders %v",
			m.members.ids(), m.coLeaders.ids())
	}
}

func TestCorruptWidenParentRepairs(t *testing.T) {
	c, key := corruptCluster(t)
	m := c.nodes[2].group(key)
	if !c.nodes[2].ApplyCorruption(CorruptionOp{Kind: CorruptWidenParent, Group: key}) {
		t.Fatal("op reported no mutation")
	}
	if m.parent.AF.Includes(m.af) {
		t.Fatal("predview filter still includes the group filter")
	}
	c.settle(400)
	m = c.nodes[2].group(key)
	if m == nil || m.state != stateActive {
		t.Fatal("group did not settle after the containment re-walk")
	}
	if !m.parent.AF.Includes(m.af) {
		t.Fatalf("containment not restored: parent %s vs group %s", m.parent.AF, m.af)
	}
}

// TestApplyCorruptionIneligible pins the no-eligible-membership contract:
// a bystander with no state to corrupt reports false and stays untouched.
func TestApplyCorruptionIneligible(t *testing.T) {
	c, _ := corruptCluster(t)
	for _, kind := range CorruptionKinds() {
		if kind == CorruptSplitBrainRoot {
			continue // needs no prior membership by design
		}
		if c.nodes[4].ApplyCorruption(CorruptionOp{Kind: kind, Peers: []sim.NodeID{phantomBase}}) {
			t.Errorf("%s mutated a node with no memberships", kind)
		}
	}
	if c.nodes[4].ApplyCorruption(CorruptionOp{Kind: CorruptionKind(42)}) {
		t.Error("unknown op kind reported a mutation")
	}
	if len(c.nodes[4].StructuralSnapshot()) != 0 {
		t.Error("ineligible ops left state behind")
	}
}

// TestCorruptionOpNames pins the op-name wire surface the chaos reports
// and scenario JSON rely on.
func TestCorruptionOpNames(t *testing.T) {
	want := map[CorruptionKind]string{
		CorruptDanglingParent: "dangling-parent",
		CorruptForgedView:     "forged-view",
		CorruptDeferenceCycle: "deference-cycle",
		CorruptSplitBrainRoot: "split-brain-root",
		CorruptViewBreak:      "view-break",
		CorruptWidenParent:    "widen-parent",
	}
	if len(CorruptionKinds()) != len(want) {
		t.Fatalf("CorruptionKinds lists %d ops, want %d", len(CorruptionKinds()), len(want))
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), name)
		}
	}
	if CorruptionKind(0).String() != "unknown" {
		t.Error("zero kind must stringify as unknown")
	}
}
