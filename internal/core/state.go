package core

// The narrow shared state of a node. The three protocol subsystems
// (membership.go, dissemination.go, repair.go) embed *state and interact
// with each other's data exclusively through this surface — the group
// and covering tables, the delivery index, the liveness table and the
// single send egress. Subsystem-private state (the expiring memories,
// pending publications, heartbeat scratch) lives on the subsystem
// structs themselves, never here.

import (
	"slices"

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
	members   *view          // groupview (self included)
	parent    Branch         // predview: contacts toward the predecessor
	branches  table[*Branch] // succview: one entry per child group
	isRoot    bool           // this membership hosts the tree root
	// auditIdx rotates the member audit: each view-exchange round the
	// leader additionally addresses one member, so stale groupview
	// entries (restarted or departed identities) eventually get asked and
	// answer "not a member".
	auditIdx int
	// departed remembers members removed by leave for dedupTTL steps, so
	// in-flight view-exchange replies built from stale mirrors cannot
	// resurrect them; a genuine re-join through acceptMember clears the
	// mark. Allocated on the first departure.
	departed memory[sim.NodeID]
}

// newMembership returns a membership of af in lifecycle state st whose
// groupview holds only self.
func newMembership(af filter.AttrFilter, st memberState, self sim.NodeID) *membership {
	return &membership{af: af, state: st, coLeaders: newView(), members: newView(self)}
}

// isLeaderHere reports whether id leads the group (leader mode). Epidemic
// groups are leaderless and every member answers.
func (m *membership) isLeaderHere(id sim.NodeID) bool {
	return m.leader == id
}

// branchList copies the succview into a shippable slice, canonically
// ordered.
func (m *membership) branchList() []Branch {
	out := make([]Branch, 0, m.branches.len())
	for _, b := range m.branches.vals {
		out = append(out, cloneBranch(*b))
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

// state is the data every subsystem may touch. Subsystems embed *state
// directly (field promotion keeps the hot paths free of interface
// dispatch), so the boundary holds by convention: shared mutations go
// through the methods below, the group, covering and branch tables are
// written only through their own get/put/del/deleteIf, and everything
// else goes through an explicit sibling-subsystem reference.
type state struct {
	env sim.Env
	cfg Config

	groups table[*membership] // by canonical filter key

	// covered is the covering table (leader mode): one entry per local
	// filter that rides on a wider routed entry instead of owning a
	// membership. A filter key is in groups or in covered, never both.
	covered table[*coverEntry] // by covered canonical filter key
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

// --- Sorted tables ---------------------------------------------------------

// table holds the entries of one key space — a node's groups, its
// covering edges, a membership's child branches — sorted by canonical
// filter key. keys and vals are parallel slices that get, put, del and
// deleteIf keep in step; nothing else writes them. Ranging over vals
// therefore visits the entries in canonical key order, which is what
// makes every protocol loop deterministic. A loop that may mutate the
// table while it walks it walks a snapshot of keys instead (a clone, or
// lazyKeys) and looks each key up again.
type table[T any] struct {
	keys []string
	vals []T
}

func (t *table[T]) len() int { return len(t.keys) }

// get returns the entry under key.
func (t *table[T]) get(key string) (T, bool) {
	if i, ok := slices.BinarySearch(t.keys, key); ok {
		return t.vals[i], true
	}
	var zero T
	return zero, false
}

// put installs v under key, replacing any entry already there.
func (t *table[T]) put(key string, v T) {
	i, ok := slices.BinarySearch(t.keys, key)
	if ok {
		t.vals[i] = v
		return
	}
	t.keys = slices.Insert(t.keys, i, key)
	t.vals = slices.Insert(t.vals, i, v)
}

// del removes the entry under key and reports whether there was one.
func (t *table[T]) del(key string) bool {
	i, ok := slices.BinarySearch(t.keys, key)
	if !ok {
		return false
	}
	t.keys = slices.Delete(t.keys, i, i+1)
	t.vals = slices.Delete(t.vals, i, i+1)
	return true
}

// deleteIf removes every entry drop reports true for, asking in key
// order. drop must not mutate the table.
func (t *table[T]) deleteIf(drop func(T) bool) {
	kept := 0
	for i, v := range t.vals {
		if !drop(v) {
			t.keys[kept], t.vals[kept] = t.keys[i], v
			kept++
		}
	}
	clear(t.keys[kept:])
	clear(t.vals[kept:])
	t.keys, t.vals = t.keys[:kept], t.vals[:kept]
}

// lazyKeys walks a table's keys for a loop that mutates the table only
// when an entry needs action. It aliases the keys until own is called —
// which the loop must do before its first mutation — and copies them
// then, so a loop that mutates nothing copies nothing, and one that does
// walks the same keys a snapshot taken up front would have held.
type lazyKeys struct {
	keys  []string
	owned bool
}

// own detaches the walked keys from the table.
func (l *lazyKeys) own() {
	if !l.owned {
		l.keys = append([]string(nil), l.keys...)
		l.owned = true
	}
}

// --- Expiring memories -----------------------------------------------------

// memory is a set of keys stamped with the step they were marked at,
// forgotten dedupTTL steps later: the event and routing dedup, the
// rumour dedup and a membership's departures. A nil memory is empty;
// add and mark allocate it on first use. Expired marks are dropped by
// the periodic expire sweep, and by within when it reads one.
type memory[K comparable] map[K]int64

// add marks k at now unless it is already marked, and reports whether it
// was new. An existing mark keeps its step, expired or not.
func (m *memory[K]) add(k K, now int64) bool {
	if _, ok := (*m)[k]; ok {
		return false
	}
	m.mark(k, now)
	return true
}

// mark stamps k with now, overwriting any earlier mark.
func (m *memory[K]) mark(k K, now int64) {
	if *m == nil {
		*m = make(memory[K])
	}
	(*m)[k] = now
}

// within reports whether k was marked no more than dedupTTL steps before
// now, forgetting the mark if it is older.
func (m memory[K]) within(k K, now int64) bool {
	at, ok := m[k]
	if ok && now-at > dedupTTL {
		delete(m, k)
		return false
	}
	return ok
}

// expire forgets every mark older than dedupTTL steps.
func (m memory[K]) expire(now int64) {
	for k, at := range m {
		if now-at > dedupTTL {
			delete(m, k)
		}
	}
}

// --- Membership lifecycle --------------------------------------------------

// setActive marks a membership settled and clears its retry tracking.
func (s *state) setActive(m *membership) {
	m.state = stateActive
	m.retries = 0
}

// setJoining marks a membership as walking (initial join or re-attach).
func (s *state) setJoining(m *membership) {
	m.state = stateJoining
}

// dropMembership removes the membership under key from the group table.
// Subscriptions it still carries stay registered in the delivery index;
// callers discarding them for good (root dissolution) deindex explicitly.
func (s *state) dropMembership(key string) {
	if s.groups.del(key) {
		s.coversStale = true
	}
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

// addCover installs e under the covered filter's key.
func (s *state) addCover(key string, e *coverEntry) {
	s.covered.put(key, e)
	s.coversStale = true
}

// hasCoverEdges reports whether any covering entry rides on the
// membership routed under covererKey.
func (s *state) hasCoverEdges(covererKey string) bool {
	for _, e := range s.covered.vals {
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
	for _, e := range s.covered.vals {
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
