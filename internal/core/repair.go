package core

import (
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
	span := n.cfg.HBMax - n.cfg.HBMin
	if span <= 0 {
		return n.cfg.HBMin
	}
	return n.cfg.HBMin + n.env.Rand().Int63n(span+1)
}

// heartbeatSendTargets collects the peers this node actively heartbeats.
// The result aliases the node's heartbeat scratch view: it is valid only
// until the next heartbeatSendTargets/expectedPeers call and must not be
// retained.
func (n *repairSys) heartbeatSendTargets() []sim.NodeID {
	set := n.hbScratch
	set.reset()
	for _, key := range n.groupOrder {
		m := n.groups[key]
		if m.state != stateActive {
			continue
		}
		switch n.cfg.Comm {
		case Epidemic:
			for _, p := range m.parent.Nodes {
				set.add(p)
			}
			for _, k := range m.branchOrder {
				for _, c := range m.branches[k].Nodes {
					set.add(c)
				}
			}
			// Probe a bounded slice of the partial group view.
			set.addHeadAfter(m.members, n.cfg.K, n.ID())
		default:
			switch {
			case m.isLeaderHere(n.ID()):
				for _, id := range m.members.list {
					set.add(id)
				}
				for _, p := range m.parent.Nodes {
					set.add(p)
				}
				for _, k := range m.branchOrder {
					for _, c := range m.branches[k].Nodes {
						set.add(c)
					}
				}
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
	for _, key := range n.groupOrder {
		m := n.groups[key]
		if m.state != stateActive {
			continue
		}
		switch n.cfg.Comm {
		case Epidemic:
			// Symmetric probing: we judge exactly whom we probe.
			for _, p := range m.parent.Nodes {
				set.add(p)
			}
			for _, k := range m.branchOrder {
				for _, c := range m.branches[k].Nodes {
					set.add(c)
				}
			}
			set.addHeadAfter(m.members, n.cfg.K, n.ID())
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
				for _, k := range m.branchOrder {
					b := m.branches[k]
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
	timeout := n.cfg.HBTimeoutMult * n.cfg.HBMax
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
	// reattach can create the root membership synchronously: snapshot.
	if n.cfg.Comm == LeaderBased {
		for _, key := range n.snapshotGroupKeys() {
			m := n.groups[key]
			if m == nil || m.state != stateActive {
				continue
			}
			// Orphaned-leader grace: a leader whose active non-root
			// group has no predview contact at all re-walks to find its
			// position. The walk-bounce resolution can settle two
			// re-attaching nodes onto each other without either finishing
			// a placement walk, fabricating a group attached to nothing.
			if m.leader == n.ID() && !m.isRoot && len(m.parent.Nodes) == 0 {
				switch {
				case m.leaderlessAt == 0:
					m.leaderlessAt = now
				case now-m.leaderlessAt > timeout:
					m.leaderlessAt = 0
					n.reattach(m)
				}
				continue
			}
			if m.leader != 0 {
				continue
			}
			if m.isRoot {
				// Root memberships sit outside the classic grace path (a
				// root has no predecessor to re-walk from). Leaderless
				// mirrors recover through the directory: the owner
				// reasserts leadership, a deposed mirror demotes, and if the
				// owner itself is gone the mirror reclaims the tree.
				switch {
				case m.leaderlessAt == 0:
					m.leaderlessAt = now
				case now-m.leaderlessAt > timeout:
					m.leaderlessAt = 0
					owner, okO := n.cfg.Directory.Owner(m.af.Attr())
					switch {
					case okO && owner == n.ID():
						m.leader = n.ID()
						m.coLeaders.remove(n.ID())
						n.broadcastCoLeaders(m)
					case okO && !n.suspected[owner]:
						n.demoteRootMirror(m)
					default:
						// Owner dead or tree ownerless: the mirror takes
						// over, as in reclaimRoots.
						n.cfg.Directory.ReplaceOwner(m.af.Attr(), n.ID())
						n.cfg.Directory.AddContact(m.af.Attr(), n.ID())
						m.leader = n.ID()
						m.coLeaders.remove(n.ID())
						n.broadcastCoLeaders(m)
					}
				}
				continue
			}
			switch {
			case m.leaderlessAt == 0:
				m.leaderlessAt = now
			case now-m.leaderlessAt > timeout:
				m.leaderlessAt = 0
				n.reattach(m)
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
	for _, key := range n.groupOrder {
		attr := n.groups[key].af.Attr()
		if !seen[attr] {
			seen[attr] = true
			n.cfg.Directory.DropContact(attr, peer)
		}
	}
	// Leadership first: promotions need the membership still marked
	// active. replaceLeader can re-walk (and so create or drop
	// memberships) synchronously: iterate a snapshot.
	for _, key := range n.snapshotGroupKeys() {
		m := n.groups[key]
		if m == nil {
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
	for _, key := range n.snapshotGroupKeys() {
		m := n.groups[key]
		if m == nil {
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
		// deleteBranch mutates the maintained order: iterate a copy.
		for _, k := range append([]string(nil), m.branchOrder...) {
			b := m.branches[k]
			if has(b.Nodes, peer) && !b.dropNode(peer) {
				m.deleteBranch(k)
			}
		}
	}
}

// replaceLeader runs the co-leader promotion protocol after a leader
// crash. Only the designated successor acts; other members wait for its
// announcement (and fall back to re-attachment if none comes).
func (n *repairSys) replaceLeader(m *membership) {
	m.leader = 0
	successor, ok := m.coLeaders.first()
	if !ok {
		// No co-leader survived. Every member independently re-walks; the
		// group re-forms at the same spot (first arrival re-creates it,
		// the rest join).
		if m.state == stateActive && !m.isRoot {
			n.reattach(m)
		}
		return
	}
	if successor != n.ID() {
		return // the successor will announce itself
	}
	m.leader = n.ID()
	m.leaderlessAt = 0
	m.coLeaders.remove(n.ID())
	if m.isRoot {
		// Co-owner takes over the tree: ownership follows the root
		// group's leadership.
		n.cfg.Directory.ReplaceOwner(m.af.Attr(), n.ID())
		n.cfg.Directory.AddContact(m.af.Attr(), n.ID())
	}
	// Promote a regular member to keep Kc co-leaders.
	for _, cand := range m.members.headAfter(n.cfg.Kc, append(m.coLeaders.ids(), n.ID())...) {
		if m.coLeaders.len() >= n.cfg.Kc {
			break
		}
		m.coLeaders.add(cand)
	}
	n.broadcastCoLeaders(m)
	// Freshly promoted co-leaders need the full groupview they now mirror.
	full := viewExchange{
		AF:       m.af,
		Members:  m.members.ids(),
		Parent:   cloneBranch(m.parent),
		Branches: m.branchList(),
		Leader:   m.leader,
		CoLead:   m.coLeaders.ids(),
		Reply:    true,
	}
	for _, cl := range m.coLeaders.ids() {
		n.send(cl, full)
	}
	n.mem.notifyNeighboursOfContacts(m, append([]sim.NodeID{n.ID()}, m.coLeaders.ids()...))
}

// broadcastCoLeaders tells every member the current leadership (leader
// mode; members only track leaders and co-leaders).
func (n *repairSys) broadcastCoLeaders(m *membership) {
	msg := coLeaderUpdate{AF: m.af, Leader: m.leader, CoLeaders: m.coLeaders.ids()}
	for _, id := range m.members.ids() {
		n.send(id, msg)
	}
}

// maybeRecruitCoOwner enlists early subscribers of a tree as co-owners:
// mirrors of the root group that keep routing and ownership alive when the
// owner crashes. The root of a DPS tree is a group like any other; a
// singleton root would be a single point of failure for generic
// up-routing.
func (n *repairSys) maybeRecruitCoOwner(m *membership, sub sim.NodeID) {
	if !m.isRoot || n.cfg.Comm != LeaderBased || !m.isLeaderHere(n.ID()) ||
		sub == n.ID() || m.coLeaders.has(sub) || m.coLeaders.len() >= n.cfg.Kc {
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
	m, ok := n.groups[af.Key()]
	if !ok {
		m = &membership{
			af:        af,
			state:     stateActive,
			coLeaders: newView(),
			members:   newView(n.ID()),
			branches:  make(map[string]*Branch),
			isRoot:    true,
		}
		n.addGroup(af.Key(), m)
	}
	m.leader = msg.Leader
	m.leaderlessAt = 0
	m.coLeaders = newView(msg.CoLeaders...)
	for _, id := range msg.Members {
		m.members.add(id)
	}
	for _, b := range msg.Branches {
		if _, dup := m.branches[b.AF.Key()]; !dup {
			nb := cloneBranch(b)
			m.setBranch(b.AF.Key(), &nb)
		}
	}
}

// handleAdopt re-parents this node's group.
func (n *repairSys) handleAdopt(msg adopt) {
	m, ok := n.groups[msg.AF.Key()]
	if !ok {
		return
	}
	m.parent = msg.NewParent
}

// handleCoLeaderUpdate installs the announced leader/co-leader set.
func (n *repairSys) handleCoLeaderUpdate(from sim.NodeID, msg coLeaderUpdate) {
	m, ok := n.groups[msg.AF.Key()]
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
	m.leader = msg.Leader
	m.leaderlessAt = 0
	n.refillLive(m.coLeaders, msg.CoLeaders)
}

// handleRehome re-walks this group from the current owner (duplicate-tree
// merge). A rehome can also address a root mirror: the cohort it mirrored
// dissolved, so the mirror demotes — dropping the membership outright
// when it serves no subscription, re-walking into the canonical tree
// when it does.
func (n *repairSys) handleRehome(msg rehome) {
	m, ok := n.groups[msg.AF.Key()]
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
	m.leader = 0
	m.leaderlessAt = 0
	if len(m.subs) > 0 {
		n.reattach(m)
		return
	}
	key := m.af.Key()
	n.dropMembership(key)
	// Stay a directory contact only while other memberships keep us in
	// the tree.
	attr := m.af.Attr()
	for _, k := range n.groupOrder {
		if n.groups[k].af.Attr() == attr {
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

// demoteInto resolves a duplicate-group merge against a lower-id leader:
// this node stops leading, points its members at the winner, and ships its
// whole state over so the winner's groupview absorbs this instance.
func (n *repairSys) demoteInto(m *membership, winner sim.NodeID, winnerCoLead []sim.NodeID) {
	m.leader = winner
	m.leaderlessAt = 0
	mine := m.members.ids()
	m.coLeaders = newView(winnerCoLead...)
	ann := coLeaderUpdate{AF: m.af, Leader: winner, CoLeaders: winnerCoLead}
	for _, id := range mine {
		if id != n.ID() && id != winner {
			n.send(id, ann)
		}
	}
	n.send(winner, viewExchange{
		AF:       m.af,
		Members:  mine,
		Parent:   cloneBranch(m.parent),
		Branches: m.branchList(),
		Leader:   winner,
		CoLead:   winnerCoLead,
		Reply:    true,
	})
}

// reclaimRoots claims ownership of trees whose owner died, re-rooting our
// top-level groups there ("self-healing ... preserved at any time").
func (n *repairSys) reclaimRoots(dead sim.NodeID) {
	attrs := map[string]bool{}
	for _, key := range n.groupOrder {
		m := n.groups[key]
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
			mirror, okM := n.groups[filter.UniversalFilter(attr).Key()]
			if !okM || !mirror.isRoot {
				continue
			}
		}
		n.cfg.Directory.ReplaceOwner(attr, n.ID())
		n.mem.ensureRoot(attr)
		// Re-walk all our groups of that tree under the new root; the
		// re-walks run synchronously and may mutate groups — snapshot.
		for _, key := range n.snapshotGroupKeys() {
			m := n.groups[key]
			if m != nil && m.af.Attr() == attr && !m.isRoot {
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
	for _, key := range n.snapshotGroupKeys() {
		m := n.groups[key]
		if m == nil || m.state != stateActive {
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
		msg := viewExchange{
			AF:       m.af,
			Members:  n.mem.memberSample(m),
			Parent:   cloneBranch(m.parent),
			Branches: m.branchList(),
			Leader:   m.leader,
			CoLead:   m.coLeaders.ids(),
		}
		var targets []sim.NodeID
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
			targets = m.members.sample(n.env.Rand(), 1, n.ID())
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
				targets = m.coLeaders.ids()
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
			for _, k := range m.branchOrder {
				if cs := m.branches[k].Nodes; len(cs) > 0 {
					targets = append(targets, cs[0])
				}
			}
		}
		for _, t := range targets {
			n.send(t, msg)
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
	// deleteBranch mutates the maintained order: iterate a copy.
	for _, k := range append([]string(nil), m.branchOrder...) {
		b := m.branches[k]
		if b.AF.Key() == m.af.Key() || !m.af.Includes(b.AF) {
			m.deleteBranch(k)
		}
	}
	if m.isRoot || m.parent.AF.IsZero() {
		return
	}
	m.parent.Nodes = n.pruneSuspected(m.parent).Nodes
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

// pruneSuspected returns a copy of the branch without the contacts this
// node currently suspects dead.
func (n *repairSys) pruneSuspected(b Branch) Branch {
	nb := cloneBranch(b)
	live := nb.Nodes[:0]
	for _, c := range nb.Nodes {
		if !n.suspected[c] {
			live = append(live, c)
		}
	}
	nb.Nodes = live
	return nb
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
	for _, k := range m.branchOrder {
		b := m.branches[k]
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
		m.leader = 0
		m.leaderlessAt = 0
		n.reattach(m)
		return
	}
	n.dropMembership(m.af.Key())
}

// handleViewExchange merges a received view sample into local state.
func (n *repairSys) handleViewExchange(from sim.NodeID, msg viewExchange) {
	m, ok := n.groups[msg.AF.Key()]
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
				m.leader = n.ID()
				m.leaderlessAt = 0
				m.coLeaders.remove(n.ID())
				n.broadcastCoLeaders(m)
			} else {
				co := m.coLeaders.ids()
				live := co[:0]
				for _, id := range co {
					if id != from {
						live = append(live, id)
					}
				}
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
				if m.recentlyDeparted(id, now, n.cfg.SeenTTL) {
					continue
				}
				m.members.add(id)
			}
		}
		if n.cfg.Comm == Epidemic {
			m.members.bound(n.cfg.GroupViewSize, n.env.Rand())
		} else {
			// Adopt the sender's leadership if we lost ours.
			if m.leader == 0 && msg.Leader != 0 && !n.suspected[msg.Leader] {
				m.leader = msg.Leader
				m.leaderlessAt = 0
				n.refillLive(m.coLeaders, msg.CoLead)
			}
			// Duplicate-instance merge (§4.2.2): two leaders for the same
			// canonical filter resolve to the lowest id; the loser demotes
			// and ships its state to the winner. A winner learning of a
			// higher-id instance announces itself so the loser can demote
			// (relayed updates are terminal and would not be replied to).
			if m.isLeaderHere(n.ID()) && msg.Leader != 0 && msg.Leader != n.ID() &&
				!n.suspected[msg.Leader] && !m.isRoot {
				if msg.Leader < n.ID() {
					n.demoteInto(m, msg.Leader, msg.CoLead)
				} else {
					n.send(msg.Leader, viewExchange{
						AF:       m.af,
						Members:  m.members.ids(),
						Parent:   cloneBranch(m.parent),
						Branches: m.branchList(),
						Leader:   n.ID(),
						CoLead:   m.coLeaders.ids(),
						Reply:    true,
					})
				}
			}
		}
		// Never adopt contacts we suspect dead: a stale mirror's view would
		// resurrect entries suspicion already removed.
		incoming := n.pruneSuspected(msg.Parent)
		if len(m.parent.Nodes) == 0 && len(incoming.Nodes) > 0 && !m.isRoot {
			m.parent = incoming
		} else if fromLeader && !m.isRoot && len(incoming.Nodes) > 0 {
			// Members adopt the leader's predview wholesale: the leader is
			// the instance that monitors and repairs the upward edge, so
			// its contacts are the fresh ones.
			m.parent = incoming
		}
		// Refresh branches we both know. Root mirrors adopt branches their
		// leader knows and they do not (keeping co-owner mirrors fresh);
		// merging foreign instances adopt the other instance's safe
		// branches. Intra-instance exchanges must not, or branches deleted
		// by re-parenting would resurrect from stale co-leader state.
		for _, b := range msg.Branches {
			if cur, okB := m.branches[b.AF.Key()]; okB {
				cur.mergeNodes(b.Nodes, n.cfg.K)
			} else if (m.isRoot && from == m.leader) ||
				(foreign && m.af.StrictlyIncludes(b.AF)) {
				nb := cloneBranch(b)
				m.setBranch(b.AF.Key(), &nb)
			}
		}
		if !msg.Reply {
			reply := viewExchange{
				AF:       m.af,
				Members:  n.mem.memberSample(m),
				Parent:   cloneBranch(m.parent),
				Branches: m.branchList(),
				Leader:   m.leader,
				CoLead:   m.coLeaders.ids(),
				Reply:    true,
			}
			n.send(from, reply)
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
		b := pm.branches[msg.AF.Key()]
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
	for _, key := range n.groupOrder {
		mm := n.groups[key]
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
