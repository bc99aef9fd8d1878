package core

// The in-node kernel: a typed message registry and the dispatch table
// routing every protocol message to the subsystem that owns it.
//
// The paper's protocol is three cooperating machines — semantic-group
// membership (§3/§4.1 find/create-group walks), event dissemination
// (§4.1/§4.2 tree and group forwarding) and self-* repair (§4.3
// heartbeats, healing, promotion). Each machine is a subsystem struct
// (membership.go, dissemination.go, repair.go) over the shared narrow
// state (state.go); the kernel connects them: every message carries a
// stable numeric MsgType, and kernelTable maps that type to the owning
// subsystem's handler. The same MsgType registry keys the binary wire
// codec (codec.go), so transport framing and in-node routing agree on one
// message identity.

import (
	"github.com/dps-overlay/dps/internal/sim"
)

// MsgType is the stable numeric identity of a protocol message. Values
// are wire format: they appear in encoded frames (codec.go) and must
// never be renumbered — new messages take fresh numbers, retired ones
// leave holes.
type MsgType uint8

// Protocol message types. The groups mirror the subsystem split.
const (
	// Membership (§3, §4.1): group discovery, joins, view maintenance.
	MsgFindGroup    MsgType = 1
	MsgJoinAccept   MsgType = 2
	MsgCreateGroup  MsgType = 3
	MsgJoinNotify   MsgType = 4
	MsgGossipSub    MsgType = 5
	MsgLeave        MsgType = 6
	MsgBranchUpdate MsgType = 7

	// Dissemination (§4.1, §4.2): event traffic.
	MsgPublishTree  MsgType = 8
	MsgPublishGroup MsgType = 9

	// Repair (§4.3): failure detection, healing, promotion, merges.
	MsgHeartbeat      MsgType = 10
	MsgHeartbeatAck   MsgType = 11
	MsgViewExchange   MsgType = 12
	MsgAdopt          MsgType = 13
	MsgCoLeaderUpdate MsgType = 14
	MsgRehome         MsgType = 15
	MsgRootInvite     MsgType = 16

	// msgTypeMax bounds the dispatch and codec tables. Type 17, wire
	// version 1's batched-events envelope, is retired.
	msgTypeMax = MsgRootInvite
)

// msgTypeName names each type for diagnostics and golden-vector files.
var msgTypeName = [msgTypeMax + 1]string{
	MsgFindGroup:      "findGroup",
	MsgJoinAccept:     "joinAccept",
	MsgCreateGroup:    "createGroup",
	MsgJoinNotify:     "joinNotify",
	MsgGossipSub:      "gossipSub",
	MsgLeave:          "leave",
	MsgBranchUpdate:   "branchUpdate",
	MsgPublishTree:    "publishTree",
	MsgPublishGroup:   "publishGroup",
	MsgHeartbeat:      "heartbeat",
	MsgHeartbeatAck:   "heartbeatAck",
	MsgViewExchange:   "viewExchange",
	MsgAdopt:          "adopt",
	MsgCoLeaderUpdate: "coLeaderUpdate",
	MsgRehome:         "rehome",
	MsgRootInvite:     "rootInvite",
}

// String returns the message type's protocol name.
func (t MsgType) String() string {
	if int(t) < len(msgTypeName) && msgTypeName[t] != "" {
		return msgTypeName[t]
	}
	return "unknown"
}

// message is the contract every protocol message satisfies: a stable
// numeric type for dispatch and a wire body encoder for the codec.
// Decoders live in codec.go's table, keyed by the same MsgType.
type message interface {
	msgType() MsgType
	appendBody(dst []byte) []byte
}

// msgType implementations — the registry half of the kernel. One line per
// protocol message; the compile-time table below refuses gaps.
func (findGroup) msgType() MsgType      { return MsgFindGroup }
func (joinAccept) msgType() MsgType     { return MsgJoinAccept }
func (createGroup) msgType() MsgType    { return MsgCreateGroup }
func (joinNotify) msgType() MsgType     { return MsgJoinNotify }
func (gossipSub) msgType() MsgType      { return MsgGossipSub }
func (leave) msgType() MsgType          { return MsgLeave }
func (branchUpdate) msgType() MsgType   { return MsgBranchUpdate }
func (publishTree) msgType() MsgType    { return MsgPublishTree }
func (publishGroup) msgType() MsgType   { return MsgPublishGroup }
func (heartbeat) msgType() MsgType      { return MsgHeartbeat }
func (heartbeatAck) msgType() MsgType   { return MsgHeartbeatAck }
func (viewExchange) msgType() MsgType   { return MsgViewExchange }
func (adopt) msgType() MsgType          { return MsgAdopt }
func (coLeaderUpdate) msgType() MsgType { return MsgCoLeaderUpdate }
func (rehome) msgType() MsgType         { return MsgRehome }
func (rootInvite) msgType() MsgType     { return MsgRootInvite }

// handler delivers one typed message to its owning subsystem.
type handler func(n *Node, from sim.NodeID, m message)

// kernelTable is the dispatch table: MsgType → owning subsystem handler.
// It is shared by every node (no per-node closures) and preserves the
// exact per-message handling the former monolithic type switch performed,
// so traces stay bit-identical.
var kernelTable = [msgTypeMax + 1]handler{
	MsgFindGroup: func(n *Node, from sim.NodeID, m message) {
		n.mem.handleFindGroup(from, m.(findGroup))
	},
	MsgJoinAccept: func(n *Node, from sim.NodeID, m message) {
		n.mem.handleJoinAccept(from, m.(joinAccept))
	},
	MsgCreateGroup: func(n *Node, from sim.NodeID, m message) {
		n.mem.handleCreateGroup(from, m.(createGroup))
	},
	MsgJoinNotify: func(n *Node, _ sim.NodeID, m message) {
		n.mem.handleJoinNotify(m.(joinNotify))
	},
	MsgGossipSub: func(n *Node, _ sim.NodeID, m message) {
		n.mem.handleGossipSub(m.(gossipSub))
	},
	MsgLeave: func(n *Node, _ sim.NodeID, m message) {
		n.mem.handleLeave(m.(leave))
	},
	MsgBranchUpdate: func(n *Node, _ sim.NodeID, m message) {
		n.mem.handleBranchUpdate(m.(branchUpdate))
	},
	MsgPublishTree: func(n *Node, _ sim.NodeID, m message) {
		n.dis.handlePublishTree(m.(publishTree))
	},
	MsgPublishGroup: func(n *Node, from sim.NodeID, m message) {
		n.dis.handlePublishGroup(from, m.(publishGroup))
	},
	MsgHeartbeat: func(n *Node, from sim.NodeID, _ message) {
		n.rep.handleHeartbeat(from)
	},
	MsgHeartbeatAck: func(*Node, sim.NodeID, message) {
		// Liveness bookkeeping already happened in OnMessage.
	},
	MsgViewExchange: func(n *Node, from sim.NodeID, m message) {
		n.rep.handleViewExchange(from, m.(viewExchange))
	},
	MsgAdopt: func(n *Node, _ sim.NodeID, m message) {
		n.rep.handleAdopt(m.(adopt))
	},
	MsgCoLeaderUpdate: func(n *Node, from sim.NodeID, m message) {
		n.rep.handleCoLeaderUpdate(from, m.(coLeaderUpdate))
	},
	MsgRehome: func(n *Node, _ sim.NodeID, m message) {
		n.rep.handleRehome(m.(rehome))
	},
	MsgRootInvite: func(n *Node, _ sim.NodeID, m message) {
		n.rep.handleRootInvite(m.(rootInvite))
	},
}

// dispatch routes one message through the kernel table. Non-protocol
// payloads (a foreign type a transport let through) are ignored, matching
// the old type switch's default case.
func (n *Node) dispatch(from sim.NodeID, msg any) {
	m, ok := msg.(message)
	if !ok {
		return
	}
	t := m.msgType()
	if int(t) < len(kernelTable) {
		if h := kernelTable[t]; h != nil {
			h(n, from, m)
		}
	}
}

// drainSelf dispatches queued self-messages; handlers may queue more.
func (n *Node) drainSelf() {
	for len(n.st.selfQ) > 0 {
		msg := n.st.selfQ[0]
		n.st.selfQ = n.st.selfQ[1:]
		n.dispatch(n.ID(), msg)
	}
}
