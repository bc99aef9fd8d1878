package core

import (
	"fmt"
	"slices"

	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
)

// The membership subsystem implements the subscription scheme of §3/§4.1:
// the FIND GROUP walk locating a subscription's position in its attribute
// tree, the SUBSCRIBE TO / CREATE GROUP answers, membership gossip and
// voluntary departures, in both leader-based and epidemic flavours, for
// both root-based and generic traversal.

// membershipSys owns group discovery, joins and view membership. It
// shares node state through the embedded *state and hands work to its
// sibling subsystems only through the typed references below.
type membershipSys struct {
	*state
	dis *disseminationSys // flushes publications once a group settles
	rep *repairSys        // co-owner recruitment, leadership announcements

	rumours memory[rumourKey] // gossipSub forward dedup (rumour-mongering)
}

// subscribe implements Node.Subscribe: the node joins the tree of the
// subscription's first attribute, at the group of its attribute filter.
func (n *membershipSys) subscribe(sub filter.Subscription) error {
	filters, err := filter.SubscriptionFilters(sub)
	if err != nil {
		return err
	}
	af := filters[0]
	if af.IsEmpty() {
		return fmt.Errorf("core: subscription %v has an unsatisfiable filter on %q", sub, af.Attr())
	}
	if m, ok := n.groups.get(af.Key()); ok {
		m.subs = append(m.subs, sub)
		n.indexSub(sub)
		return nil
	}
	if n.cfg.Comm == LeaderBased {
		// Covering is the leader-mode protocol. Epidemic group views are
		// partial samples with probabilistic diffusion, so a covered
		// member would have no deterministic delivery path there.
		//
		// Covering stop (Def. 3): an already-routed local entry includes
		// the new filter — record the covered→coverer edge and stop; the
		// wider group already carries every event the new filter matches.
		if e, ok := n.covered.get(af.Key()); ok {
			e.subs = append(e.subs, sub)
			n.indexSub(sub)
			return nil
		}
		if cm := n.coverCandidate(af); cm != nil {
			n.addCover(af.Key(), &coverEntry{
				af: af, coverer: cm.af.Key(), subs: []filter.Subscription{sub}})
			n.indexSub(sub)
			return nil
		}
		// Widening: the new filter strictly includes an in-flight walk of
		// pure subscriber state — fold the narrow walk under the new
		// filter and propagate only the wider one. Stale answers to the
		// folded walk hit the raced-unsubscribe paths and dissolve
		// harmlessly.
		if jm := n.widenCandidate(af); jm != nil {
			n.foldWalkUnder(jm, af, sub)
			return nil
		}
	}
	n.indexSub(sub)
	n.joinNew(af, []filter.Subscription{sub})
	return nil
}

// joinNew routes subs through a fresh joining membership of af and
// starts its placement walk.
func (n *membershipSys) joinNew(af filter.AttrFilter, subs []filter.Subscription) {
	m := newMembership(af, stateJoining, n.ID())
	m.subs = subs
	n.groups.put(af.Key(), m)
	n.startJoin(m)
}

// coverCandidate returns the first membership (group order) whose filter
// strictly includes af and can serve as a coverer, or nil. A still-joining
// coverer qualifies: its walk is already routing the wider filter, and a
// covered edge riding on it follows any relabeling (retargetCoverEdges) or
// is re-propagated if the walk dissolves (recoverOrphanedCovers). Root
// memberships never qualify: the root's members are routing mirrors, not
// subscribers — events are not diffused to them (dissemination.go).
func (n *membershipSys) coverCandidate(af filter.AttrFilter) *membership {
	for _, m := range n.groups.vals {
		if m.isRoot || m.af.IsUniversal() {
			continue
		}
		if m.af.Attr() == af.Attr() && m.af.StrictlyIncludes(af) {
			return m
		}
	}
	return nil
}

// widenCandidate returns the first in-flight walk (group order) on af's
// attribute that af strictly includes and that is still pure subscriber
// state, or nil — a narrower sibling that can fold under the new, wider
// filter instead of being routed on its own.
func (n *membershipSys) widenCandidate(af filter.AttrFilter) *membership {
	for _, jm := range n.groups.vals {
		if jm.state != stateJoining || jm.isRoot || jm.af.IsUniversal() || jm.af.Attr() != af.Attr() {
			continue
		}
		if af.StrictlyIncludes(jm.af) && coverFoldable(jm) {
			return jm
		}
	}
	return nil
}

// foldWalkUnder relabels the in-flight membership jm to the strictly wider
// filter wider: jm's former filter becomes a covering entry riding on the
// wider label, sub (the wider filter's own subscription) seeds the
// relabeled membership, and the walk restarts under the new label.
// In-flight answers for the old label find no membership and take the
// raced-unsubscribe exits (handleCreateGroup / handleJoinAccept).
func (n *membershipSys) foldWalkUnder(jm *membership, wider filter.AttrFilter, sub filter.Subscription) {
	old := jm.af
	n.dropMembership(old.Key())
	// Edges riding on the old label ride on the wider one: a strictly
	// wider filter still includes every covered filter.
	n.retargetCoverEdges(old.Key(), wider.Key())
	n.addCover(old.Key(), &coverEntry{af: old, coverer: wider.Key(), subs: jm.subs})
	n.indexSub(sub)
	jm.af = wider
	jm.subs = []filter.Subscription{sub}
	jm.retries = 0
	n.groups.put(wider.Key(), jm)
	n.startJoin(jm)
}

// unsubscribe implements Node.Unsubscribe. When the last subscription
// behind a membership goes, the node leaves the group.
func (n *membershipSys) unsubscribe(sub filter.Subscription) error {
	filters, err := filter.SubscriptionFilters(sub)
	if err != nil {
		return err
	}
	af := filters[0]
	m, ok := n.groups.get(af.Key())
	if !ok {
		if e, okC := n.covered.get(af.Key()); okC {
			return n.unsubscribeCovered(e, sub)
		}
		return fmt.Errorf("core: not subscribed with filter %v", af)
	}
	if !removeSub(&m.subs, sub) {
		return fmt.Errorf("core: subscription %v not found", sub)
	}
	n.unindexSub(sub)
	if len(m.subs) == 0 {
		// Un-cover before leaving: subscriptions this entry was covering
		// must get routed entries of their own, or the departure would
		// strand them (the covered filters have no group anywhere).
		if n.hasCoverEdges(m.af.Key()) {
			n.repropagateCovered(m.af.Key())
		}
		n.leaveGroup(m)
	}
	return nil
}

// unsubscribeCovered withdraws a subscription that rides on a coverer.
// When the last subscription of the covered filter goes, the edge is
// dropped; when the coverer itself no longer serves any subscription —
// direct or covered — the node leaves the wider group too.
func (n *membershipSys) unsubscribeCovered(e *coverEntry, sub filter.Subscription) error {
	if !removeSub(&e.subs, sub) {
		return fmt.Errorf("core: subscription %v not found", sub)
	}
	n.unindexSub(sub)
	if len(e.subs) > 0 {
		return nil
	}
	n.covered.del(e.af.Key())
	if cm, ok := n.groups.get(e.coverer); ok && len(cm.subs) == 0 && !n.hasCoverEdges(e.coverer) {
		n.leaveGroup(cm)
	}
	return nil
}

// removeSub cuts the first subscription with sub's canonical string from
// *subs and reports whether there was one.
func removeSub(subs *[]filter.Subscription, sub filter.Subscription) bool {
	want := sub.String()
	for i, s := range *subs {
		if s.String() == want {
			*subs = append((*subs)[:i], (*subs)[i+1:]...)
			return true
		}
	}
	return false
}

// repropagateCovered turns every covering entry riding on covererKey back
// into a routed entry of its own: a fresh joining membership per covered
// filter, re-walked from scratch. The subscriptions never left the
// delivery index, so only the routing position is rebuilt.
func (n *membershipSys) repropagateCovered(covererKey string) {
	for _, key := range slices.Clone(n.covered.keys) {
		e, ok := n.covered.get(key)
		if !ok || e.coverer != covererKey {
			continue
		}
		n.covered.del(key)
		n.joinNew(e.af, e.subs)
	}
}

// recoverOrphanedCovers is the per-tick covering safety net: any covering
// entry whose coverer membership vanished through a path that could not
// un-cover in place (root dissolution, repair-driven drops, raced
// merges) is re-propagated, bounding how long a stale coverer can strand
// covered subscribers to one tick. It sweeps only after a mutation that
// can orphan an entry (coversStale).
func (n *membershipSys) recoverOrphanedCovers() {
	if !n.coversStale {
		return
	}
	n.coversStale = false
	keys := lazyKeys{keys: n.covered.keys}
	for i := 0; i < len(keys.keys); i++ {
		key := keys.keys[i]
		e, ok := n.covered.get(key)
		if !ok {
			continue
		}
		if _, alive := n.groups.get(e.coverer); alive {
			continue
		}
		keys.own()
		n.covered.del(key)
		n.joinNew(e.af, e.subs)
	}
}

// startJoin kicks off (or retries) the findGroup walk for a joining
// membership. If the attribute has no tree yet, the subscriber claims
// ownership and becomes the root.
func (n *membershipSys) startJoin(m *membership) {
	m.sentAt = n.env.Now()
	m.retries++
	// Bounded-join backstop: a walk that a corrupted topology keeps
	// swallowing (stale contacts can livelock a walk in ways no single
	// routing repair covers) must not park the subscription forever. Past
	// the retry budget, anchor the group in place — the leader's position
	// probes and the parent's branch exchanges reconnect it from there,
	// so total repair time stays bounded.
	if m.retries > selfAnchorRetries {
		n.selfAnchor(m)
		return
	}
	attr := m.af.Attr()
	owner, ok := n.cfg.Directory.Owner(attr)
	if !ok {
		owner = n.cfg.Directory.ClaimOwner(attr, n.ID())
	}
	// Liveness escalation: a walk that keeps going unanswered points at a
	// dead owner nobody with a mirror survived to replace. Claim the tree
	// ourselves rather than retrying into the void forever.
	if owner != n.ID() && (n.suspected[owner] || m.retries > ownerEscalateRetries) {
		n.cfg.Directory.ReplaceOwner(attr, n.ID())
		owner = n.ID()
	}
	if owner == n.ID() {
		n.ensureRoot(attr)
		n.localFindGroup(findGroup{AF: m.af, Subscriber: n.ID(), Mode: n.cfg.Traversal})
		return
	}
	msg := findGroup{AF: m.af, Subscriber: n.ID(), Mode: n.cfg.Traversal}
	switch n.cfg.Traversal {
	case Generic:
		if contact, okc := n.cfg.Directory.Contact(attr, n.env.Rand()); okc {
			n.send(contact, msg)
			return
		}
		n.send(owner, msg)
	default:
		n.send(owner, msg)
	}
}

// ensureRoot creates the root membership for an attribute this node owns.
func (n *membershipSys) ensureRoot(attr string) *membership {
	af := filter.UniversalFilter(attr)
	if m, ok := n.groups.get(af.Key()); ok {
		return m
	}
	m := newMembership(af, stateActive, n.ID())
	m.setLeader(n.ID())
	m.isRoot = true
	n.groups.put(af.Key(), m)
	n.cfg.Directory.AddContact(attr, n.ID())
	return m
}

// selfAnchor activates a joining membership in place: the node claims
// leadership of its own instance and lets the probe machinery merge it
// if a duplicate instance surfaces later. This is the terminal repair for
// walks a damaged topology cannot answer.
func (n *membershipSys) selfAnchor(m *membership) {
	n.setActive(m)
	if n.cfg.Comm == LeaderBased && !m.isLeaderHere(n.ID()) {
		n.rep.claim(m)
	}
	m.members.add(n.ID())
	n.cfg.Directory.AddContact(m.af.Attr(), n.ID())
	n.dis.flushPending(m)
}

// retryJoins re-issues findGroup walks that have gone unanswered — lost to
// crashed handlers or to in-flight reconfiguration.
func (n *membershipSys) retryJoins(now int64) {
	// startJoin can settle or drop walks synchronously (a local walk ends
	// in acceptMember): own the keys before it and re-check each entry.
	keys := lazyKeys{keys: n.groups.keys}
	for i := 0; i < len(keys.keys); i++ {
		m, ok := n.groups.get(keys.keys[i])
		if ok && m.state == stateJoining && now-m.sentAt >= joinRetryAfter {
			keys.own()
			n.startJoin(m)
		}
	}
}

// handleFindGroup processes one step of the walk at this node. from is
// the previous hop (this node's own id for local walk starts).
func (n *membershipSys) handleFindGroup(from sim.NodeID, f findGroup) {
	var m *membership
	if !f.At.IsZero() {
		if tm, ok := n.groups.get(f.At.Key()); ok {
			switch {
			case tm.state == stateActive:
				m = tm
			case f.Subscriber != n.ID() && tm.af.SameExtension(f.AF):
				// Two nodes re-attaching to the same group can bounce
				// walks off each other forever (each is the other's only
				// contact and joining members cannot accept). Resolve
				// deterministically: forward to a live third-party leader
				// if one is known, else the lowest id self-anchors and
				// accepts the other.
				if tm.leader != 0 && tm.leader != n.ID() && tm.leader != f.Subscriber &&
					!n.suspected[tm.leader] {
					f.Hops++
					n.send(tm.leader, f)
					return
				}
				if n.ID() < f.Subscriber {
					n.setActive(tm)
					if n.cfg.Comm == LeaderBased {
						tm.setLeader(n.ID())
					}
					m = tm
				}
			case f.Subscriber == n.ID() && tm.af.SameExtension(f.AF):
				// The walk came back to our own joining membership: every
				// route to the group leads here, so no other instance exists
				// to accept us — the single-node twin of the two-party bounce
				// above (corruption harness finding: a re-attach whose group
				// has no surviving second member loops forever otherwise).
				n.selfAnchor(tm)
				return
			}
		}
	}
	if m == nil {
		m = n.walkMembership(f)
		if from != n.ID() && !f.At.IsZero() && (m == nil || n.cfg.Comm == LeaderBased) {
			if _, hosts := n.groups.get(f.At.Key()); !hosts {
				// We were addressed as a contact of a group we do not
				// hold: make the sender drop us from its branch, or the
				// stale entry routes every retry back here forever. In
				// leader mode that holds also when another membership of
				// the tree carries the walk on, since its route up leads
				// back through the sender (corruption harness findings: a
				// dissolved forged root's old contacts, and a non-holder a
				// broken view seated as co-leader, which its leader
				// advertised to the parent). Epidemic branches keep such a
				// contact: their K sampled pointers are refreshed by
				// gossip, and the walk carried on usually arrives.
				n.send(from, leave{AF: f.At, Member: n.ID()})
			}
		}
	}
	if m == nil {
		// Nothing useful here (stale contact): restart from the owner if
		// we know it, otherwise drop — the subscriber's retry timer covers
		// us.
		if owner, ok := n.cfg.Directory.Owner(f.AF.Attr()); ok && owner != n.ID() && f.Hops < 64 {
			f.Hops++
			f.At = filter.AttrFilter{}
			n.send(owner, f)
		}
		return
	}
	n.walkFrom(m, from, f)
}

// localFindGroup runs the walk starting at one of this node's own
// memberships (tree owners and re-walks).
func (n *membershipSys) localFindGroup(f findGroup) {
	n.handleFindGroup(n.ID(), f)
}

// walkMembership picks the membership that should process the walk step.
func (n *membershipSys) walkMembership(f findGroup) *membership {
	attr := f.AF.Attr()
	// Prefer the root membership if we host it.
	if m, ok := n.groups.get(filter.UniversalFilter(attr).Key()); ok {
		return m
	}
	// Otherwise any active membership in that tree (generic traversal may
	// land anywhere; the first in group order, for reproducibility).
	for _, m := range n.groups.vals {
		if m.af.Attr() == attr && m.state == stateActive {
			return m
		}
	}
	return nil
}

// walkFrom advances the walk from membership m, possibly recursing locally
// when the next hop is this same node. from is the previous hop of the
// walk.
func (n *membershipSys) walkFrom(m *membership, from sim.NodeID, f findGroup) {
	if f.Hops > 128 {
		return // defensive bound; the subscriber will retry
	}
	// Leader mode: group decisions belong to the leader, with one
	// exception: never forward a walk to its own subscriber — when the
	// believed leader IS the node that is walking (it re-attaches while
	// the cohort still names it leader), deferring to it just returns
	// the walk to a node that cannot accept itself; this member answers
	// instead, and its joinAccept hands the subscriber the predview it
	// lost.
	if n.cfg.Comm == LeaderBased && !m.isLeaderHere(n.ID()) && m.leader != 0 &&
		!n.suspected[m.leader] &&
		m.leader != f.Subscriber {
		if from == m.leader && from != n.ID() &&
			!has(m.parent.Nodes, from) {
			// Leadership deference cycle: the walk came from the very node
			// we would forward it to, so each side believes the other
			// leads — crossed duplicate-instance merges can leave two
			// members deferring to each other forever, bouncing every walk
			// between them. Resolve by the same total order merges use:
			// the lower id anchors leadership, announces it and processes
			// the walk; the higher id forgets its stale leader and bounces
			// the walk back so the lower side sees the cycle too (it
			// cannot detect it otherwise — each node only ever receives
			// the walk from its own believed leader). The bounce cannot
			// loop: both sides clear or claim the leadership on first
			// contact. The parent-contact exclusion above keeps a genuine
			// route-down from colliding with this: a node leading both the
			// parent and this group hands walks to this group's contacts
			// with the exact shape of a leader deferral.
			if n.ID() < from {
				n.rep.claim(m)
			} else {
				m.setLeader(0)
				f.Hops++
				f.At = m.af
				n.send(from, f)
				return
			}
		} else {
			f.Hops++
			f.At = m.af
			n.send(m.leader, f)
			return
		}
	}
	// Reaching this point in leader mode means this node acts as the
	// group's decision maker. If the group is leaderless, claim it before
	// answering: two leaderless instances can otherwise re-attach into
	// each other forever, each accepting the other with Leader 0 (the
	// leaderless twin of the deference cycle above — both found by the
	// chaos harness).
	if n.cfg.Comm == LeaderBased && m.leader == 0 &&
		m.state == stateActive && !m.isRoot {
		n.rep.claim(m)
	}
	if m.isRoot {
		n.rep.maybeRecruitCoOwner(m, f.Subscriber)
	}
	switch {
	case m.af.SameExtension(f.AF):
		n.acceptMember(m, f.Subscriber, f.AF)
	default:
		if next, nextAF, ok := n.routeDown(m, f); ok {
			f.Hops++
			f.At = nextAF
			if next == n.ID() {
				n.handleFindGroup(n.ID(), f)
				return
			}
			n.send(next, f)
			return
		}
		if m.af.IsUniversal() || m.af.StrictlyIncludes(f.AF) {
			if f.Probe {
				// The prober sits where the walk says it should: just make
				// sure the branch entry exists (it may have been lost to
				// healing), never create a second instance.
				if _, okB := m.branches.get(f.AF.Key()); !okB {
					m.branches.put(f.AF.Key(), &Branch{AF: f.AF, Nodes: []sim.NodeID{f.Subscriber}})
				}
				return
			}
			n.createChild(m, f)
			return
		}
		// Generic traversal: the target is not below us — go up.
		if up, ok := m.parent.first(); ok {
			f.Hops++
			f.At = m.parent.AF
			if up == n.ID() {
				n.handleFindGroup(n.ID(), f)
				return
			}
			n.send(up, f)
			return
		}
		// No parent known (orphaned): restart at the owner.
		if owner, ok := n.cfg.Directory.Owner(f.AF.Attr()); ok && owner != n.ID() {
			f.Hops++
			f.At = filter.AttrFilter{}
			n.send(owner, f)
		}
	}
}

// routeDown finds the deterministic child branch the walk descends into:
// first (in canonical key order) a branch with the same extension, then a
// branch strictly including the filter. Contacts that are suspected dead
// or are the walking subscriber itself are unusable; a branch with no
// usable contact is skipped, letting the walk stop at the current group —
// a re-attaching subscriber then re-anchors its existing group here via
// CREATE GROUP, which overwrites the stale branch entry.
func (n *membershipSys) routeDown(m *membership, f findGroup) (sim.NodeID, filter.AttrFilter, bool) {
	for _, b := range m.branches.vals {
		if b.AF.SameExtension(f.AF) {
			if c := n.liveContact(b, f.Subscriber); c != 0 {
				return c, b.AF, true
			}
		}
	}
	for _, b := range m.branches.vals {
		if b.AF.StrictlyIncludes(f.AF) {
			if c := n.liveContact(b, f.Subscriber); c != 0 {
				return c, b.AF, true
			}
		}
	}
	return 0, filter.AttrFilter{}, false
}

// liveContact returns the first usable contact of a branch, or 0.
func (n *membershipSys) liveContact(b *Branch, exclude sim.NodeID) sim.NodeID {
	for _, c := range b.Nodes {
		if c == exclude || n.suspected[c] {
			continue
		}
		if c == n.ID() {
			// A self-contact is only meaningful while we host the child
			// group and it can accept (joining members cannot); a stale
			// one would recurse the walk into ourselves until the hop cap
			// on every retry (corruption harness finding). Skipping it
			// stops the walk at the current group, where CREATE GROUP
			// re-anchors and overwrites the entry.
			if cm, hosts := n.groups.get(b.AF.Key()); !hosts || cm.state != stateActive {
				continue
			}
		}
		return c
	}
	return 0
}

// coverFoldable reports whether a walking membership is pure subscriber
// state — no other members, no leadership, no tree edges — and can
// therefore be folded into a covering entry without orphaning group state
// shared with other nodes.
func coverFoldable(m *membership) bool {
	return m.state == stateJoining && !m.isRoot && m.members.len() <= 1 &&
		m.coLeaders.len() == 0 && m.branches.len() == 0 && m.leader == 0
}

// acceptMember adds the subscriber to this group and answers SUBSCRIBE TO.
func (n *membershipSys) acceptMember(m *membership, sub sim.NodeID, wanted filter.AttrFilter) {
	if sub == n.ID() {
		// Self-joins happen when the wanted filter has the same extension
		// as a group we already belong to (string filters can differ
		// syntactically): merge the pending membership into the settled
		// one. Cover edges riding on the pending label follow it.
		if wanted.Key() != m.af.Key() {
			if jm, ok := n.groups.get(wanted.Key()); ok && jm != m {
				m.subs = append(m.subs, jm.subs...)
				n.dropMembership(wanted.Key())
				n.retargetCoverEdges(wanted.Key(), m.af.Key())
			}
		}
		n.setActive(m)
		return
	}
	delete(m.departed, sub) // a genuine re-join overrides the leave memory
	isNew := m.members.add(sub)
	if n.cfg.Comm == Epidemic {
		m.members.bound(groupViewSize, n.env.Rand())
	}
	// Promote early joiners to co-leaders (leader mode: "the first Kc
	// nodes that joined the group directly after the leader").
	becameCoLeader := false
	if n.cfg.Comm == LeaderBased && m.isLeaderHere(n.ID()) && isNew &&
		m.coLeaders.len() < numCoLeaders {
		m.coLeaders.add(sub)
		becameCoLeader = true
	}
	acc := joinAccept{
		AF:        m.af,
		Wanted:    wanted,
		Leader:    m.leader,
		CoLeaders: m.coLeaders.ids(),
		Parent:    cloneBranch(m.parent),
	}
	switch {
	case n.cfg.Comm == Epidemic:
		acc.Leader = 0
		acc.Members = n.memberSample(m)
	case becameCoLeader:
		// Co-leaders mirror the whole groupview (paper §4.2.1).
		acc.Members = m.members.ids()
	default:
		// Regular members only track the leader and co-leaders.
		acc.Members = append([]sim.NodeID{m.leader}, m.coLeaders.ids()...)
	}
	n.send(sub, acc)
	if !isNew {
		return
	}
	switch n.cfg.Comm {
	case Epidemic:
		n.gossipMembership(m, gossipSub{AF: m.af, Member: sub})
	default:
		// The leader informs co-leaders (they mirror the full groupview).
		for _, cl := range m.coLeaders.ids() {
			if cl != sub {
				n.send(cl, joinNotify{AF: m.af, Member: sub})
			}
		}
		if becameCoLeader {
			n.rep.broadcastCoLeaders(m)
			// The parent's branch entry for us can now carry K contacts.
			contacts := append([]sim.NodeID{n.ID()}, m.coLeaders.ids()...)
			for _, p := range m.parent.Nodes {
				n.send(p, branchUpdate{Parent: m.parent.AF,
					Child: Branch{AF: m.af, Nodes: contacts}})
			}
		}
	}
}

// memberSample returns the membership list shipped in epidemic join
// answers and view exchanges: a bounded sample of the partial view.
func (n *membershipSys) memberSample(m *membership) []sim.NodeID {
	if n.cfg.Comm == Epidemic {
		s := m.members.sample(n.env.Rand(), groupViewSize)
		if len(s) == 0 {
			s = []sim.NodeID{n.ID()}
		}
		return s
	}
	return m.members.ids()
}

// createChild makes this group the designated predecessor Gm of the new
// filter: former child branches now covered by the new group are adopted
// by it (CREATE GROUP).
func (n *membershipSys) createChild(m *membership, f findGroup) {
	var adopted []Branch
	m.branches.deleteIf(func(b *Branch) bool {
		if !f.AF.StrictlyIncludes(b.AF) {
			return false
		}
		adopted = append(adopted, cloneBranch(*b))
		return true
	})
	m.branches.put(f.AF.Key(), &Branch{AF: f.AF, Nodes: []sim.NodeID{f.Subscriber}})
	parentContacts := append([]sim.NodeID{n.ID()}, m.coLeaders.headAfter(n.cfg.K-1)...)
	msg := createGroup{
		AF:      f.AF,
		Parent:  Branch{AF: m.af, Nodes: parentContacts},
		Adopted: adopted,
	}
	n.rep.maybeRecruitCoOwner(m, f.Subscriber)
	if f.Subscriber == n.ID() {
		n.handleCreateGroup(n.ID(), msg)
		return
	}
	n.send(f.Subscriber, msg)
}

// handleCreateGroup installs this node as the founding member (and leader)
// of a new group.
func (n *membershipSys) handleCreateGroup(from sim.NodeID, msg createGroup) {
	m, ok := n.groups.get(msg.AF.Key())
	if !ok {
		// We no longer want this group (raced unsubscribe): dissolve it
		// right back so the parent does not keep a dangling branch.
		n.send(from, leave{AF: msg.AF, Member: n.ID(), Branches: msg.Adopted})
		return
	}
	n.setActive(m)
	if n.cfg.Comm == Epidemic {
		m.setLeader(0)
	} else {
		m.setLeader(n.ID())
	}
	m.parent = msg.Parent
	for _, b := range msg.Adopted {
		nb := cloneBranch(b)
		m.branches.put(b.AF.Key(), &nb)
		// Tell the adopted groups about their new predecessor.
		np := Branch{AF: m.af, Nodes: []sim.NodeID{n.ID()}}
		for _, c := range b.Nodes {
			n.send(c, adopt{AF: b.AF, NewParent: np})
		}
	}
	n.cfg.Directory.AddContact(m.af.Attr(), n.ID())
	n.dis.flushPending(m)
}

// handleJoinAccept finalises a SUBSCRIBE TO.
func (n *membershipSys) handleJoinAccept(from sim.NodeID, msg joinAccept) {
	m, ok := n.groups.get(msg.AF.Key())
	if ok && m.state == stateActive && n.cfg.Comm == LeaderBased &&
		m.isLeaderHere(n.ID()) && msg.Leader != 0 && msg.Leader != n.ID() {
		// A probe (or duplicate join) found another instance of our group.
		n.rep.settleTie(m, msg.Leader, msg.CoLeaders)
		return
	}
	if !ok && !msg.Wanted.IsZero() && msg.Wanted.Key() != msg.AF.Key() {
		// The group's canonical filter differs syntactically from the one
		// we asked with: re-key our membership to the group's filter. Cover
		// edges riding on the walking label follow it — the canonical
		// filter has the same extension, so it still includes them.
		if jm, okW := n.groups.get(msg.Wanted.Key()); okW {
			n.dropMembership(msg.Wanted.Key())
			n.retargetCoverEdges(msg.Wanted.Key(), msg.AF.Key())
			jm.af = msg.AF
			n.groups.put(msg.AF.Key(), jm)
			m, ok = jm, true
		}
	}
	if !ok {
		// Raced unsubscribe: tell the group we are gone.
		n.send(from, leave{AF: msg.AF, Member: n.ID()})
		return
	}
	wasJoining := m.state == stateJoining
	wasLeading := m.isLeaderHere(n.ID())
	n.setActive(m)
	m.setLeader(msg.Leader)
	// A leader's position probe answers through its own acceptMember, so
	// the accept can echo a pre-eviction snapshot back at it; the leave
	// memory keeps evicted entries from riding back in.
	now := n.env.Now()
	co := make([]sim.NodeID, 0, len(msg.CoLeaders))
	for _, id := range msg.CoLeaders {
		if !m.departed.within(id, now) {
			co = append(co, id)
		}
	}
	n.refillLive(m.coLeaders, co)
	// A re-attaching leader that merged into another instance hands its
	// members over to the new leadership.
	if wasLeading && n.cfg.Comm == LeaderBased && msg.Leader != n.ID() && m.members.len() > 1 {
		n.rep.announceLeader(m, msg.Leader, msg.CoLeaders)
		n.send(msg.Leader, viewExchange{
			AF:      m.af,
			Members: m.members.ids(),
			Leader:  msg.Leader,
			CoLead:  msg.CoLeaders,
			Reply:   true,
		})
	}
	for _, id := range msg.Members {
		if m.departed.within(id, now) {
			continue // same probe-echo race as the co-leader list above
		}
		m.members.add(id)
	}
	if n.cfg.Comm == Epidemic {
		m.members.bound(groupViewSize, n.env.Rand())
	}
	// When the acceptor is itself orphaned (empty predview), keep what we
	// know instead of erasing it — the parent's periodic branch exchanges
	// may already have re-pointed us at the live tree, and that knowledge
	// is how a detached group instance pair finds its way back
	// (chaos-harness finding: two orphaned instances can otherwise
	// re-accept each other's re-walks with empty predviews forever).
	// Probe echoes can also carry a predview whose contacts suspicion
	// already removed; adopting them back would undo that repair.
	if live := n.rep.liveContacts(msg.Parent.Nodes); len(live) > 0 || len(m.parent.Nodes) == 0 {
		adoptParent(m, msg.Parent.AF, live)
	}
	if wasJoining {
		n.cfg.Directory.AddContact(m.af.Attr(), n.ID())
	}
	n.dis.flushPending(m)
}

// handleJoinNotify keeps leader-mode co-leaders' groupview in sync.
func (n *membershipSys) handleJoinNotify(msg joinNotify) {
	m, ok := n.groups.get(msg.AF.Key())
	if !ok {
		return
	}
	if msg.Gone {
		m.members.remove(msg.Member)
		m.coLeaders.remove(msg.Member)
		m.departed.mark(msg.Member, n.env.Now())
		return
	}
	m.members.add(msg.Member)
}

// handleGossipSub spreads epidemic membership updates (GOSSIP SUB).
func (n *membershipSys) handleGossipSub(msg gossipSub) {
	m, ok := n.groups.get(msg.AF.Key())
	if !ok {
		return
	}
	if msg.Gone {
		m.members.remove(msg.Member)
		m.departed.mark(msg.Member, n.env.Now())
	} else if !m.departed.within(msg.Member, n.env.Now()) {
		m.members.add(msg.Member)
		m.members.bound(groupViewSize, n.env.Rand())
	}
	// Rumour-mongering: forward each distinct rumour at most once per
	// dedup window, or bounded partial views make rumours immortal (an
	// evicted member looks "new" forever).
	if n.rumours.add(rumourKey{af: msg.AF.Key(), gone: msg.Gone, member: msg.Member}, n.env.Now()) {
		n.gossipMembership(m, msg)
	}
}

// rumourKey identifies one membership rumour: who joined or left which
// group.
type rumourKey struct {
	af     string
	gone   bool
	member sim.NodeID
}

// gossipMembership forwards a membership rumour to Fs random members with
// hop-decaying probability.
func (n *membershipSys) gossipMembership(m *membership, msg gossipSub) {
	if msg.Hops >= maxGossipHops {
		return
	}
	p := pow(n.cfg.ForwardDecay, msg.Hops)
	if n.env.Rand().Float64() >= p {
		return
	}
	msg.Hops++
	for _, id := range m.members.sample(n.env.Rand(), n.cfg.SubFanout, n.ID(), msg.Member) {
		n.send(id, msg)
	}
}

// leaveGroup executes a voluntary departure (unsubscription).
func (n *membershipSys) leaveGroup(m *membership) {
	n.dropMembership(m.af.Key())
	n.cfg.Directory.DropContact(m.af.Attr(), n.ID())
	if m.state != stateActive {
		return // never finished joining: nothing to tear down
	}
	others := m.members.ids()
	alive := others[:0]
	for _, id := range others {
		if id != n.ID() {
			alive = append(alive, id)
		}
	}
	if len(alive) == 0 {
		// Last member: dissolve the group; the parent adopts our children.
		if p, ok := m.parent.first(); ok {
			n.send(p, leave{AF: m.af, Member: n.ID(), Branches: m.branchList()})
		}
		return
	}
	switch n.cfg.Comm {
	case Epidemic:
		n.gossipMembership(m, gossipSub{AF: m.af, Member: n.ID(), Gone: true})
	default:
		if m.isLeaderHere(n.ID()) {
			n.handOverLeadership(m, alive)
		} else if m.leader != 0 {
			n.send(m.leader, leave{AF: m.af, Member: n.ID()})
		}
	}
}

// notifyNeighboursOfContacts refreshes the branch entry the parent keeps
// for this group and the predview its children keep.
func (n *membershipSys) notifyNeighboursOfContacts(m *membership, contacts []sim.NodeID) {
	self := Branch{AF: m.af, Nodes: contacts}
	for _, p := range m.parent.Nodes {
		n.send(p, branchUpdate{Parent: m.parent.AF, Child: cloneBranch(self)})
	}
	for _, b := range m.branches.vals {
		for _, c := range b.Nodes {
			n.send(c, adopt{AF: b.AF, NewParent: cloneBranch(self)})
		}
	}
}

// handleLeave processes a member departure or a whole-group dissolution.
func (n *membershipSys) handleLeave(msg leave) {
	// Group dissolution: adopt the orphaned branches.
	if len(msg.Branches) > 0 {
		m := n.membershipWithBranch(msg.AF)
		if m != nil {
			m.branches.del(msg.AF.Key())
			np := Branch{AF: m.af, Nodes: append([]sim.NodeID{n.ID()}, m.coLeaders.ids()...)}
			for _, b := range msg.Branches {
				nb := cloneBranch(b)
				m.branches.put(b.AF.Key(), &nb)
				for _, c := range b.Nodes {
					n.send(c, adopt{AF: b.AF, NewParent: cloneBranch(np)})
				}
			}
			return
		}
	}
	m, ok := n.groups.get(msg.AF.Key())
	if !ok {
		// Maybe we are the parent: a childless last member left.
		if pm := n.membershipWithBranch(msg.AF); pm != nil {
			if b, okB := pm.branches.get(msg.AF.Key()); okB && !b.dropNode(msg.Member) {
				pm.branches.del(msg.AF.Key())
			}
		}
		return
	}
	m.members.remove(msg.Member)
	m.coLeaders.remove(msg.Member)
	m.departed.mark(msg.Member, n.env.Now())
	if m.leader == msg.Member {
		// The peer we deferred to says it is not in the group: forget the
		// stale leadership. The leaderless grace (or, for root mirrors,
		// the directory-based recovery) finds the real cohort from here.
		m.setLeader(0)
	}
	if n.cfg.Comm == LeaderBased && m.isLeaderHere(n.ID()) {
		for _, cl := range m.coLeaders.ids() {
			n.send(cl, joinNotify{AF: m.af, Member: msg.Member, Gone: true})
		}
	}
}

// handleBranchUpdate refreshes the contact list of one child branch.
func (n *membershipSys) handleBranchUpdate(msg branchUpdate) {
	m, ok := n.groups.get(msg.Parent.Key())
	if !ok {
		m = n.membershipWithBranch(msg.Child.AF)
		if m == nil {
			return
		}
	}
	if b, ok := m.branches.get(msg.Child.AF.Key()); ok {
		*b = cloneBranch(msg.Child)
		return
	}
	// Unknown branch: accept it if it belongs below us (healing).
	if m.af.IsUniversal() || m.af.StrictlyIncludes(msg.Child.AF) {
		nb := cloneBranch(msg.Child)
		m.branches.put(msg.Child.AF.Key(), &nb)
	}
}

// membershipWithBranch finds the membership holding a branch for af.
func (n *membershipSys) membershipWithBranch(af filter.AttrFilter) *membership {
	key := af.Key()
	for _, m := range n.groups.vals {
		if _, ok := m.branches.get(key); ok {
			return m
		}
	}
	return nil
}
