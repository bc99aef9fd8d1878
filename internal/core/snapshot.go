package core

import (
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
)

// Structural snapshot API: a read-only, copy-out view of a node's overlay
// position for invariant checkers and diagnostics (internal/chaos). Unlike
// Inspect, which renders strings for humans, StructuralSnapshot preserves
// the typed filters so a checker can evaluate semantic relations
// (inclusion, same-extension) exactly as the protocol does.
//
// Snapshots are deep copies: mutating one never touches node state, and
// callers may retain them across steps. Take snapshots only between engine
// steps (or from a sim.Service hook on the coordinator) — node state is
// not synchronized for mid-step concurrent reads.

// MembershipSnapshot captures one group membership: the node's role, its
// group view, and the tree edges it maintains (predview up, succview
// down).
type MembershipSnapshot struct {
	// Key is the canonical filter key — the group's identity.
	Key string
	// AF is the group's attribute filter; AF.Attr() names the tree.
	AF filter.AttrFilter
	// Joining is true while the membership's findGroup walk is in flight.
	Joining bool
	// IsRoot marks the membership hosting (or mirroring) the tree root.
	IsRoot bool
	// Leader is the group leader (leader mode; 0 when unknown or epidemic).
	Leader sim.NodeID
	// CoLeaders lists the co-leader mirrors in promotion order.
	CoLeaders []sim.NodeID
	// Members is the groupview: full (leader/co-leader) or partial
	// (regular member, epidemic).
	Members []sim.NodeID
	// Parent is the predview edge: contacts toward the predecessor group.
	Parent Branch
	// Branches is the succview: one edge per child group, in canonical
	// key order.
	Branches []Branch
	// Subs counts the local subscriptions served by this membership.
	Subs int
	// CoveredSubs counts the local subscriptions riding on this
	// membership through the covering table (leader mode): their
	// filters are included in AF, so this membership is their only
	// delivery path.
	CoveredSubs int
}

// StructuralSnapshot returns deep copies of every membership in canonical
// key order. The result is independent of node state and safe to retain.
func (n *Node) StructuralSnapshot() []MembershipSnapshot {
	coveredBy := make(map[string]int, n.st.covered.len())
	for _, e := range n.st.covered.vals {
		coveredBy[e.coverer] += len(e.subs)
	}
	out := make([]MembershipSnapshot, 0, n.st.groups.len())
	for i, m := range n.st.groups.vals {
		key := n.st.groups.keys[i]
		out = append(out, MembershipSnapshot{
			Key:         key,
			AF:          m.af,
			Joining:     m.state == stateJoining,
			IsRoot:      m.isRoot,
			Leader:      m.leader,
			CoLeaders:   m.coLeaders.ids(),
			Members:     m.members.ids(),
			Parent:      cloneBranch(m.parent),
			Branches:    m.branchList(),
			Subs:        len(m.subs),
			CoveredSubs: coveredBy[key],
		})
	}
	return out
}
