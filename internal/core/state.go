package core

// The narrow shared state of a node. The three protocol subsystems
// (membership.go, dissemination.go, repair.go) embed *state and interact
// with each other's data exclusively through this surface — the group
// table with its maintained orderings, the delivery index, the liveness
// table and the single send egress. Subsystem-private state (dedup
// memories, pending publications, heartbeat scratch) lives on the
// subsystem structs themselves, never here.

import (
	"sort"

	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
)

// memberState tracks the lifecycle of one group membership.
type memberState uint8

const (
	// stateJoining: a findGroup walk is in flight; retried until answered.
	stateJoining memberState = iota + 1
	// stateActive: the node is a settled member of the group.
	stateActive
)

// membership is a node's participation in one semantic group — one per
// distinct attribute filter the node subscribed with. It bundles the
// node-local slice of the group state: role, views toward the group, the
// predecessor and the successor branches.
type membership struct {
	af   filter.AttrFilter
	subs []filter.Subscription // local subscriptions served by this group

	state   memberState
	sentAt  int64 // when the last findGroup was sent (retry timer)
	retries int   // consecutive unanswered findGroup walks
	// leaderlessAt starts the grace period a leader-mode member allows
	// for a promotion announcement before re-attaching itself.
	leaderlessAt int64

	leader    sim.NodeID
	coLeaders *view
	members   *view              // groupview (self included)
	parent    Branch             // predview: contacts toward the predecessor
	branches  map[string]*Branch // succview: one entry per child group
	// branchOrder holds the sorted canonical keys of branches, maintained
	// on every branch mutation: deterministic child iteration is a slice
	// range, not a per-call map-key sort. All writes to branches must go
	// through setBranch/deleteBranch to keep the two in sync.
	branchOrder []string
	isRoot      bool // this membership hosts the tree root
	// auditIdx rotates the member audit: each view-exchange round the
	// leader additionally addresses one member, so stale groupview
	// entries (restarted or departed identities) eventually get asked and
	// answer "not a member".
	auditIdx int
	// departed remembers members removed by leave for a dedup window, so
	// in-flight view-exchange replies built from stale mirrors cannot
	// resurrect them; a genuine re-join through acceptMember clears the
	// mark. Lazily allocated.
	departed map[sim.NodeID]int64
}

// markDeparted remembers that id left the group at the given step.
func (m *membership) markDeparted(id sim.NodeID, now int64) {
	if m.departed == nil {
		m.departed = make(map[sim.NodeID]int64)
	}
	m.departed[id] = now
}

// recentlyDeparted reports whether id left within the ttl window,
// pruning expired marks as a side effect.
func (m *membership) recentlyDeparted(id sim.NodeID, now, ttl int64) bool {
	if m.departed == nil {
		return false
	}
	at, ok := m.departed[id]
	if !ok {
		return false
	}
	if ttl > 0 && now-at > ttl {
		delete(m.departed, id)
		return false
	}
	return true
}

// setBranch installs b under key in the succview, maintaining the
// deterministic branch iteration order.
func (m *membership) setBranch(key string, b *Branch) {
	if _, dup := m.branches[key]; !dup {
		m.branchOrder = insertSortedKey(m.branchOrder, key)
	}
	m.branches[key] = b
}

// deleteBranch removes the branch under key, maintaining the order.
func (m *membership) deleteBranch(key string) {
	if _, ok := m.branches[key]; ok {
		delete(m.branches, key)
		m.branchOrder = removeSortedKey(m.branchOrder, key)
	}
}

// isLeaderHere reports whether id leads the group (leader mode). Epidemic
// groups are leaderless and every member answers.
func (m *membership) isLeaderHere(id sim.NodeID) bool {
	return m.leader == id
}

// branchList copies the succview into a shippable slice, canonically
// ordered (the maintained branch order).
func (m *membership) branchList() []Branch {
	out := make([]Branch, 0, len(m.branches))
	for _, k := range m.branchOrder {
		out = append(out, cloneBranch(*m.branches[k]))
	}
	return out
}

// indexedSub is one entry of the per-attribute delivery index. The id
// (Subscription.String) identifies the entry for removal, mirroring the
// identity Unsubscribe matches on.
type indexedSub struct {
	sub filter.Subscription
	id  string
}

// state is the data every subsystem may touch. Access goes through the
// methods below (and through the maintained-ordering contract documented
// in types.go); the kernelAPI assertion in node.go pins the surface.
type state struct {
	env sim.Env
	cfg Config

	groups     map[string]*membership // by canonical filter key
	groupOrder []string               // sorted keys of groups (maintained)
	joining    map[string]*membership // subset of groups with state joining
	joinOrder  []string               // sorted keys of joining (maintained)

	// covered is the covering table (leader mode): one entry per local
	// filter that rides on a wider routed entry instead of owning a
	// membership. A filter key is in groups or in covered, never both.
	covered    map[string]*coverEntry // by covered canonical filter key
	coverOrder []string               // sorted keys of covered (maintained)
	// coversStale is set by every mutation that can leave a covering entry
	// without its coverer (a group removed, an entry added or re-targeted)
	// and cleared when recoverOrphanedCovers starts its sweep, so a node
	// whose table and groups did not change skips the sweep.
	coversStale bool

	// subsByAttr indexes live subscriptions by their first attribute: a
	// subscription can only match an event carrying that attribute, so
	// notifyLocal probes only the lists of the event's own attributes
	// instead of scanning every group × every subscription.
	subsByAttr map[string][]indexedSub

	lastSeen  map[sim.NodeID]int64 // liveness signal per monitored peer
	suspected map[sim.NodeID]bool

	// selfQ holds self-addressed protocol messages; they are dispatched
	// after the current handler returns (inline dispatch would mutate
	// membership state mid-iteration).
	selfQ []message
}

// ID returns the node's identifier (valid after attach).
func (s *state) ID() sim.NodeID { return s.env.ID() }

// send is the single egress point. Self-addressed messages — a leader
// that is also the tree owner updating "the parent", a co-leader
// announcing to itself — queue locally and dispatch after the current
// handler returns.
func (s *state) send(to sim.NodeID, msg message) {
	if to == s.ID() {
		s.selfQ = append(s.selfQ, msg)
		return
	}
	s.env.Send(to, msg)
}

// --- Maintained orderings --------------------------------------------------

// insertSortedKey inserts k into the sorted slice, keeping it sorted and
// duplicate-free.
func insertSortedKey(keys []string, k string) []string {
	i := sort.SearchStrings(keys, k)
	if i < len(keys) && keys[i] == k {
		return keys
	}
	keys = append(keys, "")
	copy(keys[i+1:], keys[i:])
	keys[i] = k
	return keys
}

// removeSortedKey deletes k from the sorted slice if present.
func removeSortedKey(keys []string, k string) []string {
	i := sort.SearchStrings(keys, k)
	if i < len(keys) && keys[i] == k {
		keys = append(keys[:i], keys[i+1:]...)
	}
	return keys
}

// addGroup installs m under key, maintaining the iteration order.
func (s *state) addGroup(key string, m *membership) {
	if _, dup := s.groups[key]; !dup {
		s.groupOrder = insertSortedKey(s.groupOrder, key)
	}
	s.groups[key] = m
}

// removeGroup deletes the membership under key, maintaining the order.
func (s *state) removeGroup(key string) {
	if _, ok := s.groups[key]; ok {
		delete(s.groups, key)
		s.groupOrder = removeSortedKey(s.groupOrder, key)
		s.coversStale = true
	}
}

// addJoining tracks m as walking, maintaining the retry iteration order.
func (s *state) addJoining(key string, m *membership) {
	if _, dup := s.joining[key]; !dup {
		s.joinOrder = insertSortedKey(s.joinOrder, key)
	}
	s.joining[key] = m
}

// removeJoining untracks a settled or dropped walk.
func (s *state) removeJoining(key string) {
	if _, ok := s.joining[key]; ok {
		delete(s.joining, key)
		s.joinOrder = removeSortedKey(s.joinOrder, key)
	}
}

// snapshotGroupKeys returns a copy of the group iteration order for loops
// that may create or drop memberships while iterating (joins, healing,
// anti-entropy). Entries must be re-looked-up — they can go stale mid-loop.
func (s *state) snapshotGroupKeys() []string {
	return append([]string(nil), s.groupOrder...)
}

// lazyKeys walks a maintained key order (groupOrder, joinOrder,
// coverOrder) for a loop that mutates it only when an entry needs action.
// It aliases the order until own is called — which the loop must do
// before its first mutation — and copies it then, so a loop that mutates
// nothing copies nothing, and one that does walks the same keys a
// snapshot taken up front would have held.
type lazyKeys struct {
	keys  []string
	owned bool
}

// own detaches the walked keys from the maintained order.
func (l *lazyKeys) own() {
	if !l.owned {
		l.keys = append([]string(nil), l.keys...)
		l.owned = true
	}
}

// --- Membership lifecycle --------------------------------------------------

// setActive marks a membership settled and clears its retry tracking.
func (s *state) setActive(m *membership) {
	m.state = stateActive
	m.retries = 0
	s.removeJoining(m.af.Key())
}

// setJoining marks a membership as walking (initial join or re-attach).
func (s *state) setJoining(m *membership) {
	m.state = stateJoining
	s.addJoining(m.af.Key(), m)
}

// dropMembership removes a membership from all indexes. Subscriptions the
// membership still carries stay registered in the delivery index; callers
// discarding them for good (root dissolution) deindex explicitly.
func (s *state) dropMembership(key string) {
	s.removeGroup(key)
	s.removeJoining(key)
}

// --- Covering table --------------------------------------------------------

// coverEntry is one covered→coverer edge of the covering table: the local
// subscriptions under af are served by the membership routed under the
// coverer key, whose filter includes af (Def. 3). The subscriptions stay
// registered in the delivery index — covering changes which group carries
// matching events to the node, never how they match locally.
type coverEntry struct {
	af      filter.AttrFilter
	coverer string // canonical key of the covering membership
	subs    []filter.Subscription
}

// addCover installs e under the covered filter's key, maintaining the
// iteration order.
func (s *state) addCover(key string, e *coverEntry) {
	if s.covered == nil {
		s.covered = make(map[string]*coverEntry)
	}
	if _, dup := s.covered[key]; !dup {
		s.coverOrder = insertSortedKey(s.coverOrder, key)
	}
	s.covered[key] = e
	s.coversStale = true
}

// removeCover deletes the entry under key, maintaining the order.
func (s *state) removeCover(key string) {
	if _, ok := s.covered[key]; ok {
		delete(s.covered, key)
		s.coverOrder = removeSortedKey(s.coverOrder, key)
	}
}

// hasCoverEdges reports whether any covering entry rides on the
// membership routed under covererKey.
func (s *state) hasCoverEdges(covererKey string) bool {
	for _, e := range s.covered {
		if e.coverer == covererKey {
			return true
		}
	}
	return false
}

// retargetCoverEdges follows a membership re-key (same-extension re-label,
// covering accept, self-join merge): edges riding on oldKey now ride on
// newKey. Every re-key widens or relabels the coverer's extension, so
// inclusion over the covered filters is preserved.
func (s *state) retargetCoverEdges(oldKey, newKey string) {
	for _, e := range s.covered {
		if e.coverer == oldKey {
			e.coverer = newKey
			s.coversStale = true
		}
	}
}

// --- Delivery index --------------------------------------------------------

// indexSub registers a live subscription under its first attribute.
func (s *state) indexSub(sub filter.Subscription) {
	attr := sub[0].Attr
	s.subsByAttr[attr] = append(s.subsByAttr[attr], indexedSub{sub: sub, id: sub.String()})
}

// unindexSub removes one previously indexed subscription (by the same
// string identity Unsubscribe matches on). Order of the remaining entries
// is preserved so delivery iteration stays deterministic.
func (s *state) unindexSub(sub filter.Subscription) {
	attr := sub[0].Attr
	list := s.subsByAttr[attr]
	id := sub.String()
	for i := range list {
		if list[i].id == id {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(s.subsByAttr, attr)
		return
	}
	s.subsByAttr[attr] = list
}

// --- Liveness --------------------------------------------------------------

// refillLive makes v hold ids, dropping peers this node suspects dead
// (stale lists would otherwise reinfect healed state with corpses).
func (s *state) refillLive(v *view, ids []sim.NodeID) {
	v.reset()
	for _, id := range ids {
		if !s.suspected[id] {
			v.add(id)
		}
	}
}

// --- Small shared helpers --------------------------------------------------

func has(ids []sim.NodeID, id sim.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// pow is a small integer-exponent power for gossip decay.
func pow(base float64, exp int) float64 {
	p := 1.0
	for i := 0; i < exp; i++ {
		p *= base
	}
	return p
}
