package core

import (
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
)

// Structural corruption API: the read-write mirror of StructuralSnapshot.
// Where the snapshot lets an invariant checker observe a node's overlay
// position, ApplyCorruption lets a fault injector (internal/chaos) force the
// node into a named illegal state — dangling predview pointers, forged
// group views, leadership deference cycles, split-brain duplicate roots,
// view-symmetry breaks and containment-violating parent filters. The
// self-stabilization claim under test (ROADMAP item 5, in the style of
// Feldmann et al.'s self-stabilizing supervised pub/sub) is that the §4.3
// repair machinery, with the repair rules listed on Config, converges back
// to a legal configuration from ANY of these states within a bounded
// number of steps — not merely from the states crash/partition faults can
// produce.
//
// Like snapshots, corruption ops may only be applied between engine steps
// (or on the node's own goroutine on the live engines): node state is not
// synchronized for mid-step mutation. Ops mutate local state only — they
// send no messages and consume no engine randomness, so a corrupted run
// stays a pure function of (scenario, seed) at any worker count.

// CorruptionKind names one structural corruption operation.
type CorruptionKind uint8

// The corruption fault family. Each op forges a specific illegal local
// state; the chaos checker names the invariant it breaks and the repair
// path expected to heal it.
const (
	// CorruptDanglingParent replaces a membership's predview contacts with
	// the given peers (dead or never-allocated ids): the upward edge points
	// at nothing. Repaired by heartbeat suspicion emptying the predview and
	// the orphaned-leader re-walk.
	CorruptDanglingParent CorruptionKind = iota + 1
	// CorruptForgedView inserts phantom members into the groupview and
	// installs the first peer as the believed leader (leader mode): the
	// group defers to a node that does not exist. Repaired by failure
	// detection and co-leader promotion.
	CorruptForgedView
	// CorruptDeferenceCycle makes a group leader abdicate to one of its own
	// members, whose view still names the abdicator: each side now believes
	// the other leads, and walks bounce between them forever. Repaired by
	// the deference-cycle anchoring (lowest id reclaims).
	CorruptDeferenceCycle
	// CorruptSplitBrainRoot forges a second self-acknowledged root for an
	// attribute tree and steals directory ownership: two cohorts each
	// believe they host the root. Repaired by the deposed root dissolving
	// through checkRootStillOwned, which rehomes its cohort.
	CorruptSplitBrainRoot
	// CorruptViewBreak inserts live non-holders into the groupview (and
	// co-leader seat): view symmetry is broken by nodes that never joined.
	// Repaired by the rotating member audit ("not a member" replies).
	CorruptViewBreak
	// CorruptWidenParent swaps the predview filter for one that does not
	// include the group's own — the S-ToPSS-style semantic-drift fault
	// delivery ratios cannot see but the containment invariant can.
	// Repaired by the structural validation re-walk.
	CorruptWidenParent
)

// String names the op for reports and scenario JSON.
func (k CorruptionKind) String() string {
	switch k {
	case CorruptDanglingParent:
		return "dangling-parent"
	case CorruptForgedView:
		return "forged-view"
	case CorruptDeferenceCycle:
		return "deference-cycle"
	case CorruptSplitBrainRoot:
		return "split-brain-root"
	case CorruptViewBreak:
		return "view-break"
	case CorruptWidenParent:
		return "widen-parent"
	}
	return "unknown"
}

// CorruptionKinds lists every named corruption op (fuzzers, CLI docs).
func CorruptionKinds() []CorruptionKind {
	return []CorruptionKind{
		CorruptDanglingParent, CorruptForgedView, CorruptDeferenceCycle,
		CorruptSplitBrainRoot, CorruptViewBreak, CorruptWidenParent,
	}
}

// CorruptionOp parameterises one corruption application.
type CorruptionOp struct {
	Kind CorruptionKind
	// Group optionally names the canonical filter key of the membership to
	// corrupt; empty picks the first eligible membership in canonical key
	// order, preferring instances this node leads (their edges are the ones
	// the repair machinery drives).
	Group string
	// Peers parameterises ops that forge references to other nodes: the
	// dangling predview contacts, the phantom members and forged leader,
	// the live non-holders seated in the view.
	Peers []sim.NodeID
	// Attr names the tree a split-brain root is forged for; empty picks the
	// first tree this node participates in without owning.
	Attr string
}

// ApplyCorruption forces the node into the op's illegal state and reports
// whether any state was mutated (a node holding no eligible membership is
// left untouched). See the package comment above for the calling contract.
func (n *Node) ApplyCorruption(op CorruptionOp) bool {
	switch op.Kind {
	case CorruptDanglingParent:
		return n.corruptDanglingParent(op)
	case CorruptForgedView:
		return n.corruptForgedView(op)
	case CorruptDeferenceCycle:
		return n.corruptDeferenceCycle(op)
	case CorruptSplitBrainRoot:
		return n.corruptSplitBrainRoot(op)
	case CorruptViewBreak:
		return n.corruptViewBreak(op)
	case CorruptWidenParent:
		return n.corruptWidenParent(op)
	}
	return false
}

// corruptMembership picks the membership an op targets: the explicitly
// named group, or the first eligible one in canonical key order. With
// preferLed, instances this node leads are tried first.
func (n *Node) corruptMembership(group string, preferLed bool, eligible func(*membership) bool) *membership {
	if group != "" {
		if m, ok := n.st.groups.get(group); ok && eligible(m) {
			return m
		}
		return nil
	}
	if preferLed {
		for _, m := range n.st.groups.vals {
			if m.isLeaderHere(n.st.ID()) && eligible(m) {
				return m
			}
		}
	}
	for _, m := range n.st.groups.vals {
		if eligible(m) {
			return m
		}
	}
	return nil
}

// forgeMember inserts id into the view structures as if it had joined,
// clearing any departure memory that would let the repair rules shrug the
// forgery off as a stale rumour.
func forgeMember(m *membership, id sim.NodeID) bool {
	delete(m.departed, id)
	return m.members.add(id)
}

func (n *Node) corruptDanglingParent(op CorruptionOp) bool {
	m := n.corruptMembership(op.Group, true, func(m *membership) bool {
		return m.state == stateActive && !m.isRoot && !m.parent.AF.IsZero()
	})
	if m == nil {
		return false
	}
	m.parent.Nodes = append([]sim.NodeID(nil), op.Peers...)
	return true
}

func (n *Node) corruptForgedView(op CorruptionOp) bool {
	if len(op.Peers) == 0 {
		return false
	}
	m := n.corruptMembership(op.Group, true, func(m *membership) bool {
		return m.state == stateActive && !m.isRoot
	})
	if m == nil {
		return false
	}
	for _, p := range op.Peers {
		forgeMember(m, p)
	}
	if n.st.cfg.Comm == LeaderBased {
		m.leader = op.Peers[0]
		m.leaderlessAt = 0
	}
	return true
}

func (n *Node) corruptDeferenceCycle(op CorruptionOp) bool {
	if n.st.cfg.Comm != LeaderBased {
		return false
	}
	self := n.st.ID()
	m := n.corruptMembership(op.Group, false, func(m *membership) bool {
		if m.state != stateActive || m.isRoot || !m.isLeaderHere(self) {
			return false
		}
		return m.members.len() > 1
	})
	if m == nil {
		return false
	}
	// Abdicate to a member whose own view still names us leader: X now
	// defers to Y while Y defers to X — a genuine two-node cycle.
	partner := sim.NodeID(0)
	if len(op.Peers) > 0 && m.members.has(op.Peers[0]) && op.Peers[0] != self {
		partner = op.Peers[0]
	} else {
		for _, id := range m.members.list {
			if id != self {
				partner = id
				break
			}
		}
	}
	if partner == 0 {
		return false
	}
	m.leader = partner
	m.leaderlessAt = 0
	return true
}

func (n *Node) corruptSplitBrainRoot(op CorruptionOp) bool {
	st := &n.st
	self := st.ID()
	attr := op.Attr
	if attr == "" {
		for _, gm := range st.groups.vals {
			a := gm.af.Attr()
			if owner, ok := st.cfg.Directory.Owner(a); ok && owner != self {
				attr = a
				break
			}
		}
	}
	if attr == "" {
		return false
	}
	af := filter.UniversalFilter(attr)
	m, ok := st.groups.get(af.Key())
	if !ok {
		m = newMembership(af, stateActive, self)
		st.groups.put(af.Key(), m)
	}
	st.setActive(m)
	m.isRoot = true
	m.leader = self
	m.leaderlessAt = 0
	m.members.add(self)
	// Steal the directory too: the forgery must matter — walks and
	// publications now route into the forged root while the deposed
	// cohort still believes it hosts the tree.
	st.cfg.Directory.ReplaceOwner(attr, self)
	st.cfg.Directory.AddContact(attr, self)
	return true
}

func (n *Node) corruptViewBreak(op CorruptionOp) bool {
	if len(op.Peers) == 0 {
		return false
	}
	self := n.st.ID()
	m := n.corruptMembership(op.Group, true, func(m *membership) bool {
		return m.state == stateActive
	})
	if m == nil {
		return false
	}
	mutated := false
	for _, p := range op.Peers {
		if p == self {
			continue
		}
		if forgeMember(m, p) {
			mutated = true
		}
	}
	// Seat the first forged peer as a co-leader when we lead: the leader
	// addresses co-leaders every exchange round, so the forgery sits on the
	// hottest repair path instead of waiting for the rotating audit.
	if n.st.cfg.Comm == LeaderBased && m.isLeaderHere(self) && op.Peers[0] != self {
		if m.coLeaders.add(op.Peers[0]) {
			mutated = true
		}
	}
	return mutated
}

func (n *Node) corruptWidenParent(op CorruptionOp) bool {
	m := n.corruptMembership(op.Group, true, func(m *membership) bool {
		return m.state == stateActive && !m.isRoot && !m.parent.AF.IsZero()
	})
	if m == nil {
		return false
	}
	// Candidate forged filters, in preference order: the first child branch
	// (containment inverted along the edge), then point filters no real
	// subscription uses. Whichever first fails to include the group's own
	// filter becomes the predview label.
	attr := m.af.Attr()
	var cands []filter.AttrFilter
	if m.branches.len() > 0 {
		cands = append(cands, m.branches.vals[0].AF)
	}
	cands = append(cands,
		filter.MustAttrFilter(attr, filter.EqInt(attr, 1<<40)),
		filter.MustAttrFilter(attr, filter.EqInt(attr, 1<<40+1)),
	)
	for _, c := range cands {
		if !c.Includes(m.af) {
			m.parent.AF = c
			return true
		}
	}
	return false
}
