package core

import (
	"errors"

	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
)

// The dissemination subsystem implements the publication scheme of
// §4.1/§4.2: PUBLISH walks the attribute trees pruning non-matching
// subtrees (root-based goes only down; generic also climbs toward the
// root), and PUBLISH GROUP diffuses the event inside each matching group
// (leader relay or gossip), with local delivery through the per-attribute
// subscription index.

// routeKey deduplicates per-(event, group) routing work: a node may route
// the same event for several of its groups, but exactly once per group.
type routeKey struct {
	id  EventID
	key string
}

// pendingPub is a publication buffered while its target group finishes
// construction (the paper's blocking flag during group creation).
type pendingPub struct {
	msg    publishTree
	heldAt int64
}

// hotEvent is an event a member keeps re-offering for a few gossip rounds
// (epidemic mode), the bimodal-multicast behaviour behind the paper's
// "high probabilistic guarantees of delivery".
type hotEvent struct {
	id     EventID
	ev     filter.Event
	afKey  string
	round  int
	nextAt int64
}

// disseminationSys owns event routing and delivery. It shares node state
// through the embedded *state; the dedup memories, the pending buffer and
// the delivery hooks are private to it.
type disseminationSys struct {
	*state

	seen    memory[EventID]  // notify dedup: first-receipt step
	routed  memory[routeKey] // per-(event, group) routing dedup
	pending []pendingPub
	hot     []hotEvent // events being re-gossiped (epidemic rounds)

	onEvent   func(EventID, filter.Event) // first receipt (contacted)
	onDeliver func(EventID, filter.Event) // matched a local subscription
}

// publish implements Node.Publish: one publication per attribute tree the
// event touches (paper §4.1).
func (n *disseminationSys) publish(id EventID, ev filter.Event) error {
	if len(ev) == 0 {
		return errors.New("core: empty event")
	}
	for _, as := range ev {
		msg := publishTree{ID: id, Event: ev, Attr: as.Attr, Mode: n.cfg.Traversal}
		switch n.cfg.Traversal {
		case Generic:
			contact, ok := n.cfg.Directory.Contact(as.Attr, n.env.Rand())
			if !ok {
				continue // no tree: no subscriber cares about this attribute
			}
			msg.Up = true
			n.sendOrLocal(contact, msg)
		default:
			owner, ok := n.cfg.Directory.Owner(as.Attr)
			if !ok {
				continue
			}
			msg.AF = filter.UniversalFilter(as.Attr)
			n.sendOrLocal(owner, msg)
		}
	}
	return nil
}

// sendOrLocal delivers locally when the target is self (publications may
// enter the tree at the publisher itself).
func (n *disseminationSys) sendOrLocal(to sim.NodeID, msg publishTree) {
	if to == n.ID() {
		n.handlePublishTree(msg)
		return
	}
	n.env.Send(to, msg)
}

// handlePublishTree processes one tree-level hop of an event.
func (n *disseminationSys) handlePublishTree(msg publishTree) {
	var m *membership
	if !msg.AF.IsZero() {
		var ok bool
		m, ok = n.groups.get(msg.AF.Key())
		if !ok || m.state != stateActive {
			// Group construction may still be in flight (the paper blocks
			// event propagation while a successor group is being set up):
			// hold the publication until the membership settles.
			n.pending = append(n.pending, pendingPub{msg: msg, heldAt: n.env.Now()})
			return
		}
	} else {
		// Generic entry at an arbitrary contact: route via any active
		// membership in the event's tree.
		m = n.activeMembershipIn(msg.Attr)
		if m == nil {
			return
		}
		msg.AF = m.af
	}
	n.routeEvent(m, msg)
}

// activeMembershipIn returns the first active membership in the tree of
// attr in group order, or nil.
func (n *disseminationSys) activeMembershipIn(attr string) *membership {
	for _, m := range n.groups.vals {
		if m.af.Attr() == attr && m.state == stateActive {
			return m
		}
	}
	return nil
}

// routeEvent applies the traversal rules at membership m.
func (n *disseminationSys) routeEvent(m *membership, msg publishTree) {
	v, ok := msg.Event.Value(m.af.Attr())
	if !ok {
		return
	}
	rk := routeKey{id: msg.ID, key: m.af.Key()}
	first := n.routed.add(rk, n.env.Now())
	if !m.af.Matches(v) {
		// Generic upward pass: a non-matching group still relays toward
		// the root ("if the event does not match the group predicate, it
		// still has to be forwarded upstream to the predecessor").
		if msg.Mode == Generic && msg.Up && first {
			n.forwardUp(m, msg)
		}
		return
	}
	// The root group's members are routing relays (the owner plus
	// co-owners), not subscribers of ⊤: the entry point counts as
	// contacted, but events are not diffused to the mirrors. A mirror
	// hands routing to the live owner (whose branch table is
	// authoritative) and only routes from its own table as failover.
	if m.isRoot {
		if !m.isLeaderHere(n.ID()) && first {
			if relay, okR := n.groupRelay(m); okR {
				fwd := msg
				fwd.AF = m.af
				n.send(relay, fwd)
				return
			}
		}
		if m.isLeaderHere(n.ID()) {
			n.notifyLocal(msg.ID, msg.Event)
		}
		if first {
			n.forwardDown(m, msg, v)
		}
		return
	}
	n.notifyLocal(msg.ID, msg.Event)
	if !first {
		return
	}
	// Leader mode: tree-level routing belongs to the leader — a regular
	// member holds no succview. Hand the whole message over ("an event
	// received by a group is always redirected to the group leader").
	if n.cfg.Comm == LeaderBased && !m.isLeaderHere(n.ID()) {
		if relay, ok := n.groupRelay(m); ok {
			fwd := msg
			fwd.AF = m.af
			n.send(relay, fwd)
			return
		}
		// No live leadership known: best effort with what we have.
	}
	n.diffuseInGroup(m, msg.ID, msg.Event, 0)
	n.forwardDown(m, msg, v)
	if msg.Mode == Generic && msg.Up {
		n.forwardUp(m, msg)
	}
}

// groupRelay picks the live leader (or first live co-leader) to hand
// tree-level work to; false when none is known alive or we should act
// ourselves.
func (n *disseminationSys) groupRelay(m *membership) (sim.NodeID, bool) {
	if m.leader != 0 && m.leader != n.ID() && !n.suspected[m.leader] {
		return m.leader, true
	}
	if m.coLeaders.has(n.ID()) {
		return 0, false // we hold the full view: act in the leader's stead
	}
	for _, cl := range m.coLeaders.ids() {
		if cl != n.ID() && !n.suspected[cl] {
			return cl, true
		}
	}
	return 0, false
}

// forwardDown sends the event into every child branch whose filter matches
// the published value, skipping the branch the event came from. Branches
// are visited in canonical key order; contact selection fills a small
// stack buffer per branch (handlePublishTree can recurse when a contact
// is this node, so the buffer must be per-frame, not shared).
func (n *disseminationSys) forwardDown(m *membership, msg publishTree, v filter.Value) {
	for _, b := range m.branches.vals {
		if !b.AF.Matches(v) {
			continue // prune the whole subtree (Def. 4 guarantees safety)
		}
		if msg.Up && !msg.FromAF.IsZero() && b.AF.Key() == msg.FromAF.Key() {
			continue // came up from there
		}
		down := publishTree{ID: msg.ID, Event: msg.Event, Attr: msg.Attr,
			Mode: msg.Mode, AF: b.AF}
		var buf [8]sim.NodeID
		for _, c := range n.branchContacts(buf[:0], b) {
			if c == n.ID() {
				n.handlePublishTree(down)
				continue
			}
			n.send(c, down)
		}
	}
}

// forwardUp relays the event to the predecessor group (generic mode).
func (n *disseminationSys) forwardUp(m *membership, msg publishTree) {
	if m.isRoot || len(m.parent.Nodes) == 0 {
		return
	}
	up := publishTree{ID: msg.ID, Event: msg.Event, Attr: msg.Attr,
		Mode: msg.Mode, AF: m.parent.AF, Up: true, FromAF: m.af}
	var buf [8]sim.NodeID
	targets := buf[:0]
	k := n.crossFanout()
	for _, c := range m.parent.Nodes {
		if n.suspected[c] {
			continue
		}
		targets = append(targets, c)
		if len(targets) == k {
			break
		}
	}
	if len(targets) == 0 && len(m.parent.Nodes) > 0 {
		targets = m.parent.Nodes[:1] // all suspected: try anyway
	}
	for _, c := range targets {
		if c == n.ID() {
			n.handlePublishTree(up)
			continue
		}
		n.send(c, up)
	}
}

// branchContacts appends to dst the contacts addressed per tree edge: one
// in leader mode (the child leader; suspicion moves to the next), k' in
// epidemic mode. dst is caller-provided scratch (usually a stack buffer)
// so steady-state routing does not allocate per branch.
func (n *disseminationSys) branchContacts(dst []sim.NodeID, b *Branch) []sim.NodeID {
	k := n.crossFanout()
	for _, c := range b.Nodes {
		if n.suspected[c] {
			continue
		}
		dst = append(dst, c)
		if len(dst) == k {
			return dst
		}
	}
	if len(dst) == 0 && len(b.Nodes) > 0 {
		dst = append(dst, b.Nodes[0]) // all suspected: try anyway
	}
	return dst
}

func (n *disseminationSys) crossFanout() int {
	if n.cfg.Comm == Epidemic && n.cfg.CrossFanout > 1 {
		return n.cfg.CrossFanout
	}
	return 1
}

// diffuseInGroup spreads the event to the members of m (PUBLISH GROUP).
// Leader-mode diffusion always starts at a tree-level receipt.
func (n *disseminationSys) diffuseInGroup(m *membership, id EventID, ev filter.Event, hops int) {
	switch n.cfg.Comm {
	case Epidemic:
		p := pow(n.cfg.ForwardDecay, hops)
		if hops > 0 && n.env.Rand().Float64() >= p {
			return
		}
		msg := publishGroup{ID: id, Event: ev, AF: m.af, Hops: hops + 1}
		for _, peer := range m.members.sample(n.env.Rand(), n.cfg.Fanout, n.ID()) {
			n.send(peer, msg)
		}
		n.scheduleHot(m, id, ev)
	default:
		if m.isLeaderHere(n.ID()) {
			n.relayInGroup(m, id, ev, 0)
			return
		}
		// Not the leader: redirect once ("an event received by a group is
		// always redirected to the group leader"). Co-leaders step in when
		// the leader is suspected.
		target := m.leader
		if target == 0 || n.suspected[target] {
			if m.coLeaders.has(n.ID()) || m.leader == 0 {
				// Act as relay ourselves: we hold the full view.
				n.relayInGroup(m, id, ev, 0)
				return
			}
			if cl, ok := m.coLeaders.first(); ok {
				target = cl
			}
		}
		if target != 0 && target != n.ID() {
			n.send(target, publishGroup{ID: id, Event: ev, AF: m.af, Hops: 0})
		}
	}
}

// relayInGroup is the leader-mode fan-out: it sends the event to every
// member of m but this node and skip (0: none).
func (n *disseminationSys) relayInGroup(m *membership, id EventID, ev filter.Event, skip sim.NodeID) {
	var msg message = publishGroup{ID: id, Event: ev, AF: m.af, Hops: 1}
	for _, peer := range m.members.list {
		if peer != n.ID() && peer != skip {
			n.send(peer, msg)
		}
	}
}

// handlePublishGroup processes intra-group event traffic.
func (n *disseminationSys) handlePublishGroup(from sim.NodeID, msg publishGroup) {
	m, ok := n.groups.get(msg.AF.Key())
	if !ok || m.state != stateActive {
		return
	}
	n.notifyLocal(msg.ID, msg.Event)
	switch n.cfg.Comm {
	case Epidemic:
		rk := routeKey{id: msg.ID, key: m.af.Key()}
		if !n.routed.add(rk, n.env.Now()) {
			return
		}
		n.diffuseInGroup(m, msg.ID, msg.Event, msg.Hops)
		// Epidemic members also push the event across tree edges,
		// providing the cross-group redundancy of §4.2.2.
		if v, okV := msg.Event.Value(m.af.Attr()); okV {
			n.forwardDown(m, publishTree{ID: msg.ID, Event: msg.Event,
				Attr: m.af.Attr(), Mode: n.cfg.Traversal, AF: m.af}, v)
		}
	default:
		if msg.Hops == 0 && m.isLeaderHere(n.ID()) {
			// A member redirected the event to us: fan out.
			n.relayInGroup(m, msg.ID, msg.Event, from)
		}
	}
}

// notifyLocal fires the contacted/delivered hooks exactly once per event.
// Matching consults the per-attribute delivery index: a subscription can
// only match an event that carries its first attribute, so only the
// index lists of the event's own attributes are probed — not every group
// × every subscription. The delivered hook fires at most once per event
// regardless of how many subscriptions match, so probe order cannot
// change observable behaviour.
func (n *disseminationSys) notifyLocal(id EventID, ev filter.Event) {
	if !n.seen.add(id, n.env.Now()) {
		return
	}
	if n.onEvent != nil {
		n.onEvent(id, ev)
	}
	for i := range ev {
		for _, e := range n.subsByAttr[ev[i].Attr] {
			if e.sub.Matches(ev) {
				if n.onDeliver != nil {
					n.onDeliver(id, ev)
				}
				return
			}
		}
	}
}

// flushPending replays publications that were waiting for m to settle.
func (n *disseminationSys) flushPending(m *membership) {
	if len(n.pending) == 0 {
		return
	}
	kept := n.pending[:0]
	var replay []publishTree
	for _, p := range n.pending {
		if !p.msg.AF.IsZero() && p.msg.AF.Key() == m.af.Key() {
			replay = append(replay, p.msg)
		} else {
			kept = append(kept, p)
		}
	}
	n.pending = kept
	for _, msg := range replay {
		n.handlePublishTree(msg)
	}
}

// expirePending drops publications whose target group never settled.
func (n *disseminationSys) expirePending(now int64) {
	if len(n.pending) == 0 {
		return
	}
	kept := n.pending[:0]
	for _, p := range n.pending {
		if now-p.heldAt <= pendingTTL {
			kept = append(kept, p)
		}
	}
	n.pending = kept
}

// gossipHot runs due re-gossip rounds.
func (n *disseminationSys) gossipHot(now int64) {
	if n.cfg.Comm != Epidemic || len(n.hot) == 0 {
		return
	}
	kept := n.hot[:0]
	for _, h := range n.hot {
		if now < h.nextAt {
			kept = append(kept, h)
			continue
		}
		m, ok := n.groups.get(h.afKey)
		if !ok || m.state != stateActive {
			continue // left the group: stop offering
		}
		msg := publishGroup{ID: h.id, Event: h.ev, AF: m.af, Hops: h.round}
		for _, peer := range m.members.sample(n.env.Rand(), n.cfg.Fanout, n.ID()) {
			n.send(peer, msg)
		}
		h.round++
		h.nextAt = now + 2
		if h.round < n.cfg.GossipRounds {
			kept = append(kept, h)
		}
	}
	n.hot = kept
}

// scheduleHot registers an event for re-gossip rounds.
func (n *disseminationSys) scheduleHot(m *membership, id EventID, ev filter.Event) {
	if n.cfg.Comm != Epidemic || n.cfg.GossipRounds <= 1 {
		return
	}
	n.hot = append(n.hot, hotEvent{
		id: id, ev: ev, afKey: m.af.Key(), round: 1, nextAt: n.env.Now() + 2,
	})
}
