package core

import "github.com/dps-overlay/dps/internal/sim"

// Leadership (§4.2.1, §4.3). A leader-mode group has one leader and up to
// numCoLeaders co-leaders that mirror its groupview; the first live
// co-leader takes over when the leader crashes, and the group repairs
// lost or duplicated leadership itself. Every change of m.leader goes
// through this file (corrupt.go aside, which forges state on purpose):
// setLeader is the one setter, claim the one way a node takes leadership
// and announces it, settleTie the one lowest-id rule between two live
// leaders, and viewMsg the one whole-instance state message they ship.

// setLeader makes id (0: none) the group's leader and stops the
// leaderless grace timer.
func (m *membership) setLeader(id sim.NodeID) {
	m.leader = id
	m.leaderlessAt = 0
}

// graceExpired runs m's leaderless grace timer: it starts the timer when
// none is running and otherwise reports, stopping it, whether the timer
// ran past timeout.
func graceExpired(m *membership, now, timeout int64) bool {
	switch {
	case m.leaderlessAt == 0:
		m.leaderlessAt = now
	case now-m.leaderlessAt > timeout:
		m.leaderlessAt = 0
		return true
	}
	return false
}

// viewMsg is the whole-instance state message of m — groupview sample,
// predview, succview and leadership — as view exchanges and merges ship
// it.
func (m *membership) viewMsg(members []sim.NodeID, leader sim.NodeID, coLead []sim.NodeID, reply bool) viewExchange {
	return viewExchange{
		AF:       m.af,
		Members:  members,
		Parent:   cloneBranch(m.parent),
		Branches: m.branchList(),
		Leader:   leader,
		CoLead:   coLead,
		Reply:    reply,
	}
}

// claim makes this node m's leader and announces it to the group.
func (n *repairSys) claim(m *membership) {
	m.setLeader(n.ID())
	m.coLeaders.remove(n.ID())
	n.broadcastCoLeaders(m)
}

// takeTree makes this node the owner and an entry point of attr's tree:
// ownership follows the root group's leadership.
func (n *repairSys) takeTree(attr string) {
	n.cfg.Directory.ReplaceOwner(attr, n.ID())
	n.cfg.Directory.AddContact(attr, n.ID())
}

// settleTie resolves two live leaders of one group — this node and
// other — to the lowest id, the total order every leadership tie uses,
// so two instances can never demote into each other: this node demotes
// into a lower other, and otherwise ships its state so other demotes.
func (n *repairSys) settleTie(m *membership, other sim.NodeID, otherCoLead []sim.NodeID) {
	if other < n.ID() {
		n.demoteInto(m, other, otherCoLead)
		return
	}
	n.send(other, m.viewMsg(m.members.ids(), n.ID(), m.coLeaders.ids(), true))
}

// announceLeader points every member of m but this node and the new
// leader at that leader and its co-leaders.
func (n *repairSys) announceLeader(m *membership, leader sim.NodeID, coLead []sim.NodeID) {
	var ann message = coLeaderUpdate{AF: m.af, Leader: leader, CoLeaders: coLead}
	for _, id := range m.members.list {
		if id != n.ID() && id != leader {
			n.send(id, ann)
		}
	}
}

// broadcastCoLeaders tells every member the current leadership (leader
// mode; members only track leaders and co-leaders).
func (n *repairSys) broadcastCoLeaders(m *membership) {
	var msg message = coLeaderUpdate{AF: m.af, Leader: m.leader, CoLeaders: m.coLeaders.ids()}
	for _, id := range m.members.ids() {
		n.send(id, msg)
	}
}

// replaceLeader runs the co-leader promotion protocol after a leader
// crash. Only the designated successor acts; other members wait for its
// announcement (and fall back to re-attachment if none comes).
func (n *repairSys) replaceLeader(m *membership) {
	m.leader = 0 // the grace timer keeps running: it bounds the wait
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
	m.setLeader(n.ID())
	m.coLeaders.remove(n.ID())
	if m.isRoot {
		// Co-owner takes over the tree.
		n.takeTree(m.af.Attr())
	}
	// Promote a regular member to keep Kc co-leaders.
	for _, cand := range m.members.headAfter(numCoLeaders, append(m.coLeaders.ids(), n.ID())...) {
		if m.coLeaders.len() >= numCoLeaders {
			break
		}
		m.coLeaders.add(cand)
	}
	n.broadcastCoLeaders(m)
	// Freshly promoted co-leaders need the full groupview they now mirror.
	var full message = m.viewMsg(m.members.ids(), m.leader, m.coLeaders.ids(), true)
	for _, cl := range m.coLeaders.ids() {
		n.send(cl, full)
	}
	n.mem.notifyNeighboursOfContacts(m, append([]sim.NodeID{n.ID()}, m.coLeaders.ids()...))
}

// demoteInto resolves a duplicate-group merge against a lower-id leader:
// this node stops leading, points its members at the winner, and ships its
// whole state over so the winner's groupview absorbs this instance.
func (n *repairSys) demoteInto(m *membership, winner sim.NodeID, winnerCoLead []sim.NodeID) {
	m.setLeader(winner)
	m.coLeaders = newView(winnerCoLead...)
	n.announceLeader(m, winner, winnerCoLead)
	n.send(winner, m.viewMsg(m.members.ids(), winner, winnerCoLead, true))
}

// handOverLeadership promotes a successor before the leader departs.
func (n *membershipSys) handOverLeadership(m *membership, alive []sim.NodeID) {
	successor, ok := m.coLeaders.first()
	if !ok {
		successor = alive[0]
	}
	m.members.remove(n.ID())
	m.coLeaders.remove(successor)
	next := coLeaderUpdate{AF: m.af, Leader: successor, CoLeaders: m.coLeaders.ids()}
	for _, id := range alive {
		n.send(id, next)
	}
	// Ship the full group state to the successor.
	n.send(successor, m.viewMsg(m.members.ids(), successor, m.coLeaders.ids(), true))
	// Parent and children must point at the successor now.
	n.notifyNeighboursOfContacts(m, append([]sim.NodeID{successor}, m.coLeaders.ids()...))
}
