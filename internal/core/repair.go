package core

import (
	"slices"

	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
)

// The repair subsystem implements the self-* machinery of §4.3:
// heartbeat-based failure detection over the view structures, co-leader
// promotion on leader crashes, predview/succview repair, tree-root
// reclamation, re-parenting (adopt/rehome), co-owner recruitment, and the
// periodic view-exchange ("merge") process that reconciles duplicate
// groups created by concurrency.
//
// Failure detection (§4.3) differs by communication mode.
//
// Leader mode is push-based and asymmetric, keeping regular members silent
// (the paper's median leader-mode node "shows no sending activity"): the
// leader periodically heartbeats its members and the adjacent groups'
// contacts; co-leaders heartbeat the leader; everyone else detects
// passively from the silence of the peers they expect traffic from. A
// member whose whole leadership goes silent re-attaches itself after a
// grace period (the multi-level-view recovery of §4.3, realised as a
// re-walk).
//
// Epidemic mode is probe-based and symmetric: every member probes its view
// neighbours, which answer with acks.

// repairSys owns liveness judgement and structural healing. It shares
// node state through the embedded *state; the heartbeat clock and scratch
// view are private to it. Re-walks go through the membership subsystem.
type repairSys struct {
	*state
	mem *membershipSys // re-walks, probes, neighbour refresh

	nextHB int64
	// hbScratch is the reusable peer set built by heartbeatSendTargets and
	// expectedPeers each round; its id list is valid only until the next
	// reset and must not be retained.
	hbScratch *view
	// vxTargets is viewExchangeRound's reusable target list.
	vxTargets []sim.NodeID
}

// handleHeartbeat processes a liveness probe. Leader-mode detection is
// push-based and silent on the receiving side; only epidemic probing
// expects an answer.
func (n *repairSys) handleHeartbeat(from sim.NodeID) {
	if n.cfg.Comm == Epidemic {
		n.send(from, heartbeatAck{})
	}
}

// hbPeriod draws the node's next heartbeat period.
func (n *repairSys) hbPeriod() int64 {
	return hbMin + n.env.Rand().Int63n(hbMax-hbMin+1)
}

// heartbeatSendTargets collects the peers this node actively heartbeats.
// The result aliases the node's heartbeat scratch view: it is valid only
// until the next heartbeatSendTargets/expectedPeers call and must not be
// retained.
func (n *repairSys) heartbeatSendTargets() []sim.NodeID {
	set := n.hbScratch
	set.reset()
	for _, m := range n.groups.vals {
		if m.state != stateActive {
			continue
		}
		switch n.cfg.Comm {
		case Epidemic:
			n.addEpidemicPeers(set, m)
		default:
			switch {
			case m.isLeaderHere(n.ID()):
				for _, id := range m.members.list {
					set.add(id)
				}
				addTreeContacts(set, m)
			case m.coLeaders.has(n.ID()) && m.leader != 0:
				set.add(m.leader)
			}
		}
	}
	set.remove(n.ID())
	return set.list
}

// expectedPeers collects the peers whose periodic traffic this node
// relies on for liveness judgement. Like heartbeatSendTargets, the result
// aliases the heartbeat scratch view and must not be retained.
func (n *repairSys) expectedPeers() []sim.NodeID {
	set := n.hbScratch
	set.reset()
	for _, m := range n.groups.vals {
		if m.state != stateActive {
			continue
		}
		switch n.cfg.Comm {
		case Epidemic:
			// Symmetric probing: we judge exactly whom we probe.
			n.addEpidemicPeers(set, m)
		default:
			if m.leader != 0 && !m.isLeaderHere(n.ID()) {
				set.add(m.leader) // the leader heartbeats all members
			}
			if m.isLeaderHere(n.ID()) {
				for _, cl := range m.coLeaders.list {
					set.add(cl) // co-leaders heartbeat their leader
				}
				// Adjacent leaders heartbeat their branch/parent contacts,
				// which include us.
				for _, p := range m.parent.Nodes[:min1(len(m.parent.Nodes))] {
					set.add(p)
				}
				for _, b := range m.branches.vals {
					for _, c := range b.Nodes[:min1(len(b.Nodes))] {
						set.add(c)
					}
				}
			}
		}
	}
	set.remove(n.ID())
	return set.list
}

// addEpidemicPeers adds the peers an epidemic member of m probes: its
// tree contacts and a bounded slice of its partial group view.
func (n *repairSys) addEpidemicPeers(set *view, m *membership) {
	addTreeContacts(set, m)
	set.addHeadAfter(m.members, n.cfg.K, n.ID())
}

// addTreeContacts adds m's predview and succview contacts to set.
func addTreeContacts(set *view, m *membership) {
	for _, p := range m.parent.Nodes {
		set.add(p)
	}
	for _, b := range m.branches.vals {
		for _, c := range b.Nodes {
			set.add(c)
		}
	}
}

func min1(n int) int {
	if n > 1 {
		return 1
	}
	return n
}

// heartbeatRound sends this node's probes and judges expected peers.
func (n *repairSys) heartbeatRound(now int64) {
	for _, peer := range n.heartbeatSendTargets() {
		n.send(peer, heartbeat{})
	}
	const timeout = hbTimeoutMult * hbMax
	for _, peer := range n.expectedPeers() {
		last, known := n.lastSeen[peer]
		if !known {
			// First round watching this peer: start its clock now.
			n.lastSeen[peer] = now
			continue
		}
		if now-last > timeout && !n.suspected[peer] {
			n.suspected[peer] = true
			n.handleFailure(peer)
		}
	}
	// Leaderless grace: an active leader-mode membership without a live
	// leader re-attaches once no promotion announcement arrives in time.
	// reattach can create the root membership synchronously: own the keys
	// before any repair call.
	if n.cfg.Comm == LeaderBased {
		keys := lazyKeys{keys: n.groups.keys}
		for i := 0; i < len(keys.keys); i++ {
			m, ok := n.groups.get(keys.keys[i])
			if !ok || m.state != stateActive {
				continue
			}
			// Orphaned-leader grace: a leader whose active non-root
			// group has no predview contact at all re-walks to find its
			// position. The walk-bounce resolution can settle two
			// re-attaching nodes onto each other without either finishing
			// a placement walk, fabricating a group attached to nothing.
			orphaned := m.leader == n.ID() && !m.isRoot && len(m.parent.Nodes) == 0
			if (m.leader != 0 && !orphaned) || !graceExpired(m, now, timeout) {
				continue
			}
			keys.own()
			if !m.isRoot {
				n.reattach(m)
				continue
			}
			// Root memberships sit outside the classic grace path (a root
			// has no predecessor to re-walk from). Leaderless mirrors
			// recover through the directory: the owner reasserts
			// leadership, a deposed mirror demotes, and if the owner itself
			// is gone the mirror reclaims the tree.
			owner, okO := n.cfg.Directory.Owner(m.af.Attr())
			switch {
			case okO && owner == n.ID():
				n.claim(m)
			case okO && !n.suspected[owner]:
				n.demoteRootMirror(m)
			default:
				// Owner dead or tree ownerless: the mirror takes over, as
				// in reclaimRoots.
				n.takeTree(m.af.Attr())
				n.claim(m)
			}
		}
	}
}

// handleFailure repairs every structure that referenced the dead peer
// ("if one node has failed, it is immediately replaced by pulling a view
// update from the other alive nodes").
func (n *repairSys) handleFailure(peer sim.NodeID) {
	// Purge the dead peer from the entry-point registry of the trees we
	// know about.
	seen := map[string]bool{}
	for _, m := range n.groups.vals {
		attr := m.af.Attr()
		if !seen[attr] {
			seen[attr] = true
			n.cfg.Directory.DropContact(attr, peer)
		}
	}
	// Leadership first: promotions need the membership still marked
	// active. replaceLeader can re-walk (and so create or drop
	// memberships) synchronously: iterate a snapshot.
	for _, key := range slices.Clone(n.groups.keys) {
		m, ok := n.groups.get(key)
		if !ok {
			continue
		}
		m.members.remove(peer)
		m.coLeaders.remove(peer)
		// Leader replacement (§4.3): the first alive co-leader takes over.
		if n.cfg.Comm == LeaderBased && m.leader == peer {
			n.replaceLeader(m)
		}
	}
	// Root reclamation next, so that any re-walk triggered by view repair
	// below already targets a live owner.
	n.reclaimRoots(peer)
	for _, key := range slices.Clone(n.groups.keys) {
		m, ok := n.groups.get(key)
		if !ok {
			continue
		}
		// Predview repair: drop the contact; if the whole predecessor view
		// died, re-walk to re-attach the group.
		if has(m.parent.Nodes, peer) {
			if !m.parent.dropNode(peer) && !m.isRoot && m.state == stateActive {
				n.reattach(m)
			}
		}
		// Succview repair: drop the contact from the branch; an empty
		// branch is removed — its members will re-attach themselves.
		m.branches.deleteIf(func(b *Branch) bool {
			return has(b.Nodes, peer) && !b.dropNode(peer)
		})
	}
}

// maybeRecruitCoOwner enlists early subscribers of a tree as co-owners:
// mirrors of the root group that keep routing and ownership alive when the
// owner crashes. The root of a DPS tree is a group like any other; a
// singleton root would be a single point of failure for generic
// up-routing.
func (n *repairSys) maybeRecruitCoOwner(m *membership, sub sim.NodeID) {
	if !m.isRoot || n.cfg.Comm != LeaderBased || !m.isLeaderHere(n.ID()) ||
		sub == n.ID() || m.coLeaders.has(sub) || m.coLeaders.len() >= numCoLeaders {
		return
	}
	m.coLeaders.add(sub)
	m.members.add(sub)
	n.send(sub, rootInvite{
		Attr:      m.af.Attr(),
		Leader:    n.ID(),
		CoLeaders: m.coLeaders.ids(),
		Members:   m.members.ids(),
		Branches:  m.branchList(),
	})
}

// handleRootInvite installs a co-owner mirror of the tree root.
func (n *repairSys) handleRootInvite(msg rootInvite) {
	af := filter.UniversalFilter(msg.Attr)
	m, ok := n.groups.get(af.Key())
	if !ok {
		m = newMembership(af, stateActive, n.ID())
		m.isRoot = true
		n.groups.put(af.Key(), m)
	}
	m.setLeader(msg.Leader)
	m.coLeaders = newView(msg.CoLeaders...)
	for _, id := range msg.Members {
		m.members.add(id)
	}
	for _, b := range msg.Branches {
		if _, dup := m.branches.get(b.AF.Key()); !dup {
			nb := cloneBranch(b)
			m.branches.put(b.AF.Key(), &nb)
		}
	}
}

// handleAdopt re-parents this node's group.
func (n *repairSys) handleAdopt(msg adopt) {
	m, ok := n.groups.get(msg.AF.Key())
	if !ok {
		return
	}
	m.parent = msg.NewParent
}

// handleCoLeaderUpdate installs the announced leader/co-leader set.
func (n *repairSys) handleCoLeaderUpdate(from sim.NodeID, msg coLeaderUpdate) {
	m, ok := n.groups.get(msg.AF.Key())
	if !ok {
		// The announcement addressed us as a member of a group we do not
		// hold: tell the announcer to drop us. Leadership changes
		// broadcast to the whole groupview, so this sweeps stale entries
		// (restarted or departed identities) out at every promotion.
		n.send(from, leave{AF: msg.AF, Member: n.ID()})
		return
	}
	if msg.Leader != 0 && n.suspected[msg.Leader] {
		return // stale announcement naming a peer we know is dead
	}
	m.setLeader(msg.Leader)
	n.refillLive(m.coLeaders, msg.CoLeaders)
}

// handleRehome re-walks this group from the current owner (duplicate-tree
// merge). A rehome can also address a root mirror: the cohort it mirrored
// dissolved, so the mirror demotes — dropping the membership outright
// when it serves no subscription, re-walking into the canonical tree
// when it does.
func (n *repairSys) handleRehome(msg rehome) {
	m, ok := n.groups.get(msg.AF.Key())
	if !ok {
		return
	}
	if m.isRoot {
		if owner, okO := n.cfg.Directory.Owner(m.af.Attr()); okO && owner == n.ID() {
			return // we own the tree: the rehome is stale
		}
		n.demoteRootMirror(m)
		return
	}
	n.setJoining(m)
	n.mem.startJoin(m)
}

// demoteRootMirror retires a root mirror whose cohort was deposed: the
// membership stops being a root; with subscriptions to serve it re-walks
// into the canonical tree, without any it leaves the overlay.
func (n *repairSys) demoteRootMirror(m *membership) {
	m.isRoot = false
	m.setLeader(0)
	if len(m.subs) > 0 {
		n.reattach(m)
		return
	}
	key := m.af.Key()
	n.dropMembership(key)
	// Stay a directory contact only while other memberships keep us in
	// the tree.
	attr := m.af.Attr()
	for _, gm := range n.groups.vals {
		if gm.af.Attr() == attr {
			return
		}
	}
	n.cfg.Directory.DropContact(attr, n.ID())
}

// reattach re-runs the placement walk for a group this node already
// belongs to (lost predecessor). The walk terminates in joinAccept (another
// replica of the group exists — merge) or createGroup (fresh spot).
func (n *repairSys) reattach(m *membership) {
	n.setJoining(m)
	n.mem.startJoin(m)
}

// reclaimRoots claims ownership of trees whose owner died, re-rooting our
// top-level groups there ("self-healing ... preserved at any time").
func (n *repairSys) reclaimRoots(dead sim.NodeID) {
	attrs := map[string]bool{}
	for _, m := range n.groups.vals {
		if !m.isRoot {
			attrs[m.af.Attr()] = true // joining memberships count too
		}
	}
	for attr := range attrs {
		owner, ok := n.cfg.Directory.Owner(attr)
		if !ok || owner != dead {
			continue
		}
		// In leader mode, ownership follows the root group: only a node
		// holding a root mirror (the owner's co-owners) may claim, or
		// every detecting member would race ReplaceOwner and a fresh,
		// branch-less root could displace the legitimate mirror. The
		// escalation in startJoin covers the all-mirrors-dead case.
		if n.cfg.Comm == LeaderBased {
			mirror, okM := n.groups.get(filter.UniversalFilter(attr).Key())
			if !okM || !mirror.isRoot {
				continue
			}
		}
		n.cfg.Directory.ReplaceOwner(attr, n.ID())
		n.mem.ensureRoot(attr)
		// Re-walk all our groups of that tree under the new root; the
		// re-walks run synchronously and may mutate groups — snapshot.
		for _, key := range slices.Clone(n.groups.keys) {
			m, ok := n.groups.get(key)
			if ok && m.af.Attr() == attr && !m.isRoot {
				n.reattach(m)
			}
		}
	}
}

// viewExchangeRound runs the periodic anti-entropy of §4.2.2: ship view
// samples to group members and succview contacts; receiving a view about a
// group with the same filter merges memberships (duplicate-group merge)
// and refreshes contacts.
func (n *repairSys) viewExchangeRound() {
	// Probes and root checks inside the loop can create, drop or re-key
	// memberships synchronously: iterate a snapshot and re-check entries.
	for _, key := range slices.Clone(n.groups.keys) {
		m, ok := n.groups.get(key)
		if !ok || m.state != stateActive {
			continue
		}
		// Structural self-validation: audit this group's tree edges
		// against the containment discipline before advertising them.
		// Crashes never break filter algebra — only corrupted state does —
		// so on crash/partition runs this is a no-op.
		n.validateStructure(m)
		if m.state != stateActive {
			continue // validation sent the group back into a walk
		}
		// The exchange is built only once its targets are known: most
		// leader-mode members have none. An epidemic member sample draws
		// from the node's stream ahead of the target sample, so it is
		// drawn here.
		var sample []sim.NodeID
		if n.cfg.Comm == Epidemic {
			sample = n.mem.memberSample(m)
		}
		targets := n.vxTargets[:0]
		adjacent := false // may this node speak for the group tree-wise?
		// Leader ping: a non-leader member synchronises with its
		// believed leader — root mirrors every round, regular members
		// every fourth (they are meant to stay near-silent). A live
		// leader replies with the authoritative view (reconciling stale
		// entries); a node that no longer holds the group answers "not a
		// member", which clears the stale leadership and routes the
		// member into the grace-period recovery. Without this, a member
		// whose leader dropped the group — but stays live and chatty on
		// other channels, so suspicion never fires — keeps deferring to
		// it forever. The ping is deliberately minimal — only the
		// sender's own id — so a stale view never re-infects the leader's
		// authoritative copy with entries the audit just removed.
		if n.cfg.Comm == LeaderBased &&
			!m.isLeaderHere(n.ID()) && m.leader != 0 && !n.suspected[m.leader] {
			ping := m.isRoot
			if !ping {
				m.auditIdx++
				ping = m.auditIdx%4 == 0
			}
			if ping {
				n.send(m.leader, viewExchange{
					AF:      m.af,
					Members: []sim.NodeID{n.ID()},
					Leader:  m.leader,
				})
			}
		}
		switch n.cfg.Comm {
		case Epidemic:
			targets = append(targets, m.members.sample(n.env.Rand(), 1, n.ID())...)
			// Feed the predecessor fresh contacts for its succview entry,
			// so cross-group fanout (k') has somewhere to fan to.
			if p, ok := m.parent.first(); ok {
				targets = append(targets, p)
			}
			adjacent = true
		default:
			// Only the leader exchanges with adjacent groups: a co-leader
			// mirror pushing its view to children would displace the
			// authoritative leader from their predviews.
			if m.isLeaderHere(n.ID()) {
				targets = append(targets, m.coLeaders.list...)
				if p, ok := m.parent.first(); ok {
					targets = append(targets, p)
				}
				adjacent = true
				if m.members.len() > 1 {
					// Rotating member audit: address a quarter of the
					// groupview per round (2–8 members, spread evenly), so
					// a full audit cycle takes at most four periods
					// regardless of group size. Live members refresh their
					// groupview and predview from the authoritative copy;
					// stale entries (restarted or departed identities)
					// answer "not a member" and get dropped.
					size := m.members.len()
					width := size / 4
					if width < 2 {
						width = 2
					}
					if width > 8 {
						width = 8
					}
					idx := m.auditIdx % size
					m.auditIdx++
					for k := 0; k < width; k++ {
						i := (idx + k*size/width) % size
						if t := m.members.list[i]; t != n.ID() && !has(targets, t) {
							targets = append(targets, t)
						}
					}
				}
			}
		}
		// The merge process: send the succview to succview contacts too.
		if adjacent {
			for _, b := range m.branches.vals {
				if cs := b.Nodes; len(cs) > 0 {
					targets = append(targets, cs[0])
				}
			}
		}
		n.vxTargets = targets
		if len(targets) > 0 {
			if sample == nil {
				sample = n.mem.memberSample(m)
			}
			var msg message = m.viewMsg(sample, m.leader, m.coLeaders.ids(), false)
			for _, t := range targets {
				n.send(t, msg)
			}
		}
		// Deposed duplicate roots dissolve themselves (duplicate-tree
		// merge of §4.1).
		if m.isRoot {
			n.checkRootStillOwned(m)
			continue
		}
		// Periodic re-traversal (§4.1): probe the canonical position of
		// this group; if a duplicate instance created concurrently turns
		// out to be the canonical one, the probe merges us into it. One
		// representative probes: the leader in leader mode, everyone
		// (cheaply staggered) in epidemic mode.
		probe := false
		switch n.cfg.Comm {
		case Epidemic:
			probe = n.env.Rand().Intn(4) == 0
		default:
			probe = m.isLeaderHere(n.ID())
		}
		if probe {
			n.sendProbe(m)
		}
	}
}

// validateStructure audits one active membership's tree edges against the
// containment discipline every legal configuration satisfies (§3: a child
// group's filter is included in its parent's, and parent/child labels are
// distinct). A predview whose label fails to include the group's own filter
// — the widened-parent corruption, S-ToPSS-style semantic drift the
// delivery ratio cannot see — is discarded and the group re-walks to its
// canonical position; a branch whose label escapes the group's filter is
// dropped, and its members re-register through their own periodic probes.
//
// The audit also re-prunes suspected contacts: suspicion fires its repair
// exactly once per peer, but echoes of pre-repair state (the leader's own
// position-probe reply, stale mirror exchanges) can re-install a contact
// handleFailure already removed — after which nothing would ever remove it
// again.
func (n *repairSys) validateStructure(m *membership) {
	m.branches.deleteIf(func(b *Branch) bool {
		return b.AF.Key() == m.af.Key() || !m.af.Includes(b.AF)
	})
	if m.isRoot || m.parent.AF.IsZero() {
		return
	}
	m.parent.Nodes = n.liveContacts(m.parent.Nodes)
	if len(m.parent.Nodes) == 0 {
		// A walk cannot refill the predview when this node is the canonical
		// instance's own leader: the walk self-accepts and echoes the empty
		// parent back. If the parent group is co-located (this node mirrors
		// the root, say), its branch entry proves the edge — re-point the
		// predview at that group's leadership directly.
		if pm := n.mem.membershipWithBranch(m.af); pm != nil && pm.state == stateActive {
			var contacts []sim.NodeID
			for _, c := range append([]sim.NodeID{pm.leader}, pm.coLeaders.ids()...) {
				if c != 0 && !n.suspected[c] && !has(contacts, c) {
					contacts = append(contacts, c)
				}
			}
			if len(contacts) > 0 {
				m.parent = Branch{AF: pm.af, Nodes: contacts}
			}
		}
	}
	if len(m.parent.Nodes) == 0 {
		// Every contact suspected and no co-located parent: clear the edge
		// and let the leaderless/orphaned grace stagger the re-walk. An
		// immediate walk here would fire every exchange round across the
		// whole population at once (partitions suspect en masse), racing
		// re-attachers into the walk-bounce fabrication the grace period
		// exists to prevent (see heartbeatRound).
		m.parent = Branch{}
		return
	}
	if m.parent.AF.Key() == m.af.Key() || !m.parent.AF.Includes(m.af) {
		m.parent = Branch{}
		n.reattach(m)
	}
}

// liveContacts returns nodes without the contacts this node suspects
// dead. It allocates only when one is suspected: otherwise the result is
// nodes itself, so a caller that keeps it must copy it (adoptParent).
func (n *repairSys) liveContacts(nodes []sim.NodeID) []sim.NodeID {
	for i, c := range nodes {
		if n.suspected[c] {
			live := append(make([]sim.NodeID, 0, len(nodes)-1), nodes[:i]...)
			for _, c := range nodes[i+1:] {
				if !n.suspected[c] {
					live = append(live, c)
				}
			}
			return live
		}
	}
	return nodes
}

// adoptParent makes (af, live) m's predview, copying live only when that
// changes what m holds: the engines hand message slices over uncopied,
// so the predview must never share storage with one.
func adoptParent(m *membership, af filter.AttrFilter, live []sim.NodeID) {
	if m.parent.AF.Key() == af.Key() && slices.Equal(m.parent.Nodes, live) {
		return
	}
	m.parent = Branch{AF: af, Nodes: append([]sim.NodeID{}, live...)}
}

// sendProbe launches a probe walk for the group's canonical position.
func (n *repairSys) sendProbe(m *membership) {
	attr := m.af.Attr()
	owner, ok := n.cfg.Directory.Owner(attr)
	if !ok {
		return
	}
	f := findGroup{AF: m.af, Subscriber: n.ID(), Mode: n.cfg.Traversal, Probe: true}
	if owner == n.ID() {
		n.mem.localFindGroup(f)
		return
	}
	n.send(owner, f)
}

// checkRootStillOwned dissolves our root membership if the directory now
// names someone else, telling our top-level branches to re-walk there.
func (n *repairSys) checkRootStillOwned(m *membership) {
	if !m.isLeaderHere(n.ID()) {
		return // co-owner mirrors never dissolve the root
	}
	owner, ok := n.cfg.Directory.Owner(m.af.Attr())
	if !ok {
		n.cfg.Directory.ClaimOwner(m.af.Attr(), n.ID())
		return
	}
	if owner == n.ID() {
		return
	}
	// Someone else owns the tree now: hand our branches over.
	for _, b := range m.branches.vals {
		for _, c := range b.Nodes {
			n.send(c, rehome{AF: b.AF})
		}
	}
	// Tell the cohort — co-owner mirrors and recruited members — that this
	// root instance dissolved. Without this they mirror a root that no
	// longer exists forever (stale leaders, ownerless mirrors): the first
	// structural defect the chaos invariant checker found.
	for _, id := range m.members.ids() {
		if id != n.ID() {
			n.send(id, rehome{AF: m.af})
		}
	}
	// The dissolving root's subscriptions re-walk into the canonical tree
	// instead of leaving the overlay with the membership.
	if len(m.subs) > 0 {
		m.isRoot = false
		m.setLeader(0)
		n.reattach(m)
		return
	}
	n.dropMembership(m.af.Key())
}

// handleViewExchange merges a received view sample into local state.
func (n *repairSys) handleViewExchange(from sim.NodeID, msg viewExchange) {
	m, ok := n.groups.get(msg.AF.Key())
	if ok && m.state == stateActive {
		// Deference-cycle anchoring: the sender believes WE
		// lead this group while we believe IT does. Both nodes are live and
		// hold the group, so neither suspicion nor the duplicate-instance
		// merge ever fires — each side just defers forever, and walks bounce
		// between them. The leader ping surfaces the cycle (its Leader field
		// carries the sender's belief); resolve it like every other
		// leadership tie, to the lowest id: the lower id reclaims and
		// re-announces, the higher id re-acknowledges the sender directly.
		if n.cfg.Comm == LeaderBased && from != n.ID() &&
			msg.Leader == n.ID() && m.leader == from {
			if n.ID() < from {
				n.claim(m)
			} else {
				live := slices.DeleteFunc(m.coLeaders.ids(), func(id sim.NodeID) bool { return id == from })
				n.send(from, coLeaderUpdate{AF: m.af, Leader: from, CoLeaders: live})
			}
			return
		}
		// Same group: union memberships (this is what merges duplicate
		// groups created concurrently — they share a key).
		foreign := from != m.leader && !m.coLeaders.has(from) && !m.members.has(from)
		fromLeader := n.cfg.Comm == LeaderBased && from == m.leader &&
			from != n.ID() && !n.suspected[from]
		now := n.env.Now()
		if fromLeader {
			// The leader's groupview is authoritative in leader mode
			// (§4.2.1: co-leaders mirror it). Reconcile instead of union,
			// or members the leader removed — crashed, restarted, left —
			// survive in mirrors forever and resurrect at the leader
			// through reply unions (found by the chaos view-symmetry
			// sweep).
			m.members.refill([]sim.NodeID{n.ID(), from}, msg.Members)
			n.refillLive(m.coLeaders, msg.CoLead)
		} else {
			for _, id := range msg.Members {
				// A member we saw leave stays out until it re-joins for
				// real: exchange replies race with removals, and an
				// un-guarded union resurrects every removed entry.
				if m.departed.within(id, now) {
					continue
				}
				m.members.add(id)
			}
		}
		if n.cfg.Comm == Epidemic {
			m.members.bound(groupViewSize, n.env.Rand())
		} else {
			// Adopt the sender's leadership if we lost ours.
			if m.leader == 0 && msg.Leader != 0 && !n.suspected[msg.Leader] {
				m.setLeader(msg.Leader)
				n.refillLive(m.coLeaders, msg.CoLead)
			}
			// Duplicate-instance merge (§4.2.2): two leaders for the same
			// canonical filter resolve to the lowest id; the loser demotes
			// and ships its state to the winner. A winner learning of a
			// higher-id instance announces itself so the loser can demote
			// (relayed updates are terminal and would not be replied to).
			if m.isLeaderHere(n.ID()) && msg.Leader != 0 && msg.Leader != n.ID() &&
				!n.suspected[msg.Leader] && !m.isRoot {
				n.settleTie(m, msg.Leader, msg.CoLead)
			}
		}
		// Never adopt contacts we suspect dead: a stale mirror's view would
		// resurrect entries suspicion already removed.
		incoming := n.liveContacts(msg.Parent.Nodes)
		if len(m.parent.Nodes) == 0 && len(incoming) > 0 && !m.isRoot {
			adoptParent(m, msg.Parent.AF, incoming)
		} else if fromLeader && !m.isRoot && len(incoming) > 0 {
			// Members adopt the leader's predview wholesale: the leader is
			// the instance that monitors and repairs the upward edge, so
			// its contacts are the fresh ones.
			adoptParent(m, msg.Parent.AF, incoming)
		}
		// Refresh branches we both know. Root mirrors adopt branches their
		// leader knows and they do not (keeping co-owner mirrors fresh);
		// merging foreign instances adopt the other instance's safe
		// branches. Intra-instance exchanges must not, or branches deleted
		// by re-parenting would resurrect from stale co-leader state.
		for _, b := range msg.Branches {
			if cur, okB := m.branches.get(b.AF.Key()); okB {
				cur.mergeNodes(b.Nodes, n.cfg.K)
			} else if (m.isRoot && from == m.leader) ||
				(foreign && m.af.StrictlyIncludes(b.AF)) {
				nb := cloneBranch(b)
				m.branches.put(b.AF.Key(), &nb)
			}
		}
		if !msg.Reply {
			n.send(from, m.viewMsg(n.mem.memberSample(m), m.leader, m.coLeaders.ids(), true))
		}
		return
	}
	// The sender believes we are adjacent to msg.AF. If we hold a branch
	// for the sender's group, refresh its contact list with the sender's
	// membership sample — this is what gives succview entries their K
	// pointers — and relay the update to our primary contact for the
	// branch, so duplicate instances of the same group come into contact
	// and merge (§4.2.2's merge process runs through the predecessor).
	if pm := n.mem.membershipWithBranch(msg.AF); pm != nil {
		b, _ := pm.branches.get(msg.AF.Key())
		primary, hadPrimary := b.first()
		fresh := append([]sim.NodeID{from}, msg.Members...)
		live := fresh[:0]
		for _, c := range fresh {
			if !n.suspected[c] && c != n.ID() {
				live = append(live, c)
			}
		}
		b.mergeNodes(live, n.cfg.K)
		if hadPrimary && primary != from && !n.suspected[primary] {
			relay := msg
			relay.Reply = true // terminal: the receiver merges, no ping-pong
			n.send(primary, relay)
		}
		// No return: a node can hold a branch for the sender's group AND
		// be one of its children (a root mirror whose own subscription
		// group sits deeper in the same tree), and the child-predview
		// refresh below is the only message path that can refill this
		// node's predview when its own re-walks self-accept.
	}
	// Otherwise perhaps we are a child — check whether one of our groups
	// appears in the sender's branch list and refresh our predview.
	for _, mm := range n.groups.vals {
		for _, b := range msg.Branches {
			if b.AF.Key() == mm.af.Key() {
				if len(mm.parent.Nodes) == 0 || mm.parent.AF.Key() == msg.AF.Key() {
					// The parent group's leader stays the primary contact;
					// mirrors and members fill the deeper K slots.
					var contacts []sim.NodeID
					if msg.Leader != 0 && !n.suspected[msg.Leader] {
						contacts = append(contacts, msg.Leader)
					}
					contacts = append(contacts, from)
					contacts = append(contacts, msg.CoLead...)
					contacts = append(contacts, msg.Members...)
					np := Branch{AF: msg.AF}
					np.mergeNodes(contacts, n.cfg.K)
					mm.parent = np
				}
			}
		}
	}
	// The sender's views claim us as a member (or even the leader) of a
	// group we do not hold AT ALL — we are a stale entry: a restart shed
	// our old memberships, or our mirror demoted. Answer "not a member"
	// so the group stops carrying us; without this, crashed-and-restarted
	// identities haunt groupviews forever (found by the chaos invariant
	// checker's view-symmetry sweep). A membership in stateJoining counts
	// as holding the group: a member mid-re-attach must not ask its own
	// cohort to evict it.
	if !ok &&
		(msg.Leader == n.ID() || has(msg.Members, n.ID()) || has(msg.CoLead, n.ID())) {
		n.send(from, leave{AF: msg.AF, Member: n.ID()})
	}
}
