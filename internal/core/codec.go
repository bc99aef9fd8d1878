package core

// The versioned binary wire codec for protocol messages, replacing the
// encoding/gob registration the package used to ship for cross-process
// transports. Every message encodes as
//
//	version:byte msgtype:byte body
//
// with the body laid out per message type from the primitives of
// internal/wire (varints, length-prefixed strings, counted lists) and the
// filter encodings of internal/filter. The MsgType registry in kernel.go
// is the single source of message identity: dispatch and wire framing use
// the same numbers, and golden vectors under testdata/ pin the byte
// layout of every type (TestWireGoldenVectors fails loudly on drift).
//
// Decoding treats input as untrusted: it never panics, allocations are
// bounded by the frame size (wire.Reader.ListLen), filters and events are
// re-canonicalised/validated, and unknown versions or types, short
// buffers and trailing bytes are errors the transport must treat as fatal
// for the connection.

import (
	"fmt"

	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
	"github.com/dps-overlay/dps/internal/wire"
)

// WireVersion is the codec version byte leading every encoded message.
// Bump it only with a migration plan: decoders reject other versions.
const WireVersion byte = 2

// AppendMessage appends the wire encoding of a protocol message to dst
// and returns the extended buffer. msg must be one of the package's
// protocol messages (anything a Node hands to sim.Env.Send); other
// payloads return an error.
func AppendMessage(dst []byte, msg any) ([]byte, error) {
	m, ok := msg.(message)
	if !ok {
		return dst, fmt.Errorf("core: cannot encode %T: not a protocol message", msg)
	}
	dst = append(dst, WireVersion, byte(m.msgType()))
	return m.appendBody(dst), nil
}

// DecodeMessage decodes one protocol message produced by AppendMessage.
// The whole buffer must be consumed: trailing bytes are an error.
func DecodeMessage(data []byte) (any, error) {
	r := wire.NewReader(data)
	version := r.Byte()
	t := MsgType(r.Byte())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: decoding message header: %w", err)
	}
	if version != WireVersion {
		return nil, fmt.Errorf("core: unsupported wire version %d (want %d)", version, WireVersion)
	}
	if int(t) >= len(wireDecoders) || wireDecoders[t] == nil {
		return nil, fmt.Errorf("core: unknown message type %d", t)
	}
	msg := wireDecoders[t](r)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: decoding %v: %w", t, err)
	}
	if !r.Done() {
		return nil, fmt.Errorf("core: decoding %v: %w", t, wire.ErrTrailingBytes)
	}
	return msg, nil
}

// wireDecoders maps MsgType → body decoder, the codec half of the kernel
// registry (encoders are the appendBody methods below).
var wireDecoders = [msgTypeMax + 1]func(*wire.Reader) message{
	MsgFindGroup:      decodeFindGroup,
	MsgJoinAccept:     decodeJoinAccept,
	MsgCreateGroup:    decodeCreateGroup,
	MsgJoinNotify:     decodeJoinNotify,
	MsgGossipSub:      decodeGossipSub,
	MsgLeave:          decodeLeave,
	MsgBranchUpdate:   decodeBranchUpdate,
	MsgPublishTree:    decodePublishTree,
	MsgPublishGroup:   decodePublishGroup,
	MsgHeartbeat:      decodeHeartbeat,
	MsgHeartbeatAck:   decodeHeartbeatAck,
	MsgViewExchange:   decodeViewExchange,
	MsgAdopt:          decodeAdopt,
	MsgCoLeaderUpdate: decodeCoLeaderUpdate,
	MsgRehome:         decodeRehome,
	MsgRootInvite:     decodeRootInvite,
}

// --- Shared field helpers --------------------------------------------------

func appendNodeID(dst []byte, id sim.NodeID) []byte {
	return wire.AppendVarint(dst, int64(id))
}

func consumeNodeID(r *wire.Reader) sim.NodeID {
	return sim.NodeID(r.Varint())
}

func appendNodeIDs(dst []byte, ids []sim.NodeID) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = appendNodeID(dst, id)
	}
	return dst
}

func consumeNodeIDs(r *wire.Reader) []sim.NodeID {
	n := r.ListLen()
	if r.Err() != nil || n == 0 {
		return nil
	}
	ids := make([]sim.NodeID, 0, wire.CapHint(n, 512))
	for i := 0; i < n; i++ {
		ids = append(ids, consumeNodeID(r))
	}
	return ids
}

func appendBranch(dst []byte, b Branch) []byte {
	dst = b.AF.AppendWire(dst)
	return appendNodeIDs(dst, b.Nodes)
}

func consumeBranch(r *wire.Reader) Branch {
	var b Branch
	b.AF = filter.ConsumeAttrFilter(r)
	b.Nodes = consumeNodeIDs(r)
	return b
}

func appendBranches(dst []byte, bs []Branch) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(bs)))
	for _, b := range bs {
		dst = appendBranch(dst, b)
	}
	return dst
}

func consumeBranches(r *wire.Reader) []Branch {
	// A branch occupies at least 3 bytes (empty filter + empty contact
	// list), so the count check is 3x tighter than the generic ListLen.
	n := r.ListLenSized(3)
	if r.Err() != nil || n == 0 {
		return nil
	}
	bs := make([]Branch, 0, wire.CapHint(n, 128))
	for i := 0; i < n; i++ {
		bs = append(bs, consumeBranch(r))
	}
	return bs
}

func consumeTraversalMode(r *wire.Reader) TraversalMode {
	m := TraversalMode(r.Byte())
	if m != 0 && m != RootBased && m != Generic {
		r.Fail(fmt.Errorf("core: invalid traversal mode %d on the wire", m))
	}
	return m
}

// --- Per-message bodies ----------------------------------------------------

func (m findGroup) appendBody(dst []byte) []byte {
	dst = m.AF.AppendWire(dst)
	dst = m.At.AppendWire(dst)
	dst = appendNodeID(dst, m.Subscriber)
	dst = wire.AppendByte(dst, byte(m.Mode))
	dst = wire.AppendVarint(dst, int64(m.Hops))
	return wire.AppendBool(dst, m.Probe)
}

func decodeFindGroup(r *wire.Reader) message {
	var m findGroup
	m.AF = filter.ConsumeAttrFilter(r)
	m.At = filter.ConsumeAttrFilter(r)
	m.Subscriber = consumeNodeID(r)
	m.Mode = consumeTraversalMode(r)
	m.Hops = int(r.Varint())
	m.Probe = r.Bool()
	return m
}

func (m joinAccept) appendBody(dst []byte) []byte {
	dst = m.AF.AppendWire(dst)
	dst = m.Wanted.AppendWire(dst)
	dst = appendNodeID(dst, m.Leader)
	dst = appendNodeIDs(dst, m.CoLeaders)
	dst = appendNodeIDs(dst, m.Members)
	return appendBranch(dst, m.Parent)
}

func decodeJoinAccept(r *wire.Reader) message {
	var m joinAccept
	m.AF = filter.ConsumeAttrFilter(r)
	m.Wanted = filter.ConsumeAttrFilter(r)
	m.Leader = consumeNodeID(r)
	m.CoLeaders = consumeNodeIDs(r)
	m.Members = consumeNodeIDs(r)
	m.Parent = consumeBranch(r)
	return m
}

func (m createGroup) appendBody(dst []byte) []byte {
	dst = m.AF.AppendWire(dst)
	dst = appendBranch(dst, m.Parent)
	return appendBranches(dst, m.Adopted)
}

func decodeCreateGroup(r *wire.Reader) message {
	var m createGroup
	m.AF = filter.ConsumeAttrFilter(r)
	m.Parent = consumeBranch(r)
	m.Adopted = consumeBranches(r)
	return m
}

func (m joinNotify) appendBody(dst []byte) []byte {
	dst = m.AF.AppendWire(dst)
	dst = appendNodeID(dst, m.Member)
	return wire.AppendBool(dst, m.Gone)
}

func decodeJoinNotify(r *wire.Reader) message {
	var m joinNotify
	m.AF = filter.ConsumeAttrFilter(r)
	m.Member = consumeNodeID(r)
	m.Gone = r.Bool()
	return m
}

func (m gossipSub) appendBody(dst []byte) []byte {
	dst = m.AF.AppendWire(dst)
	dst = appendNodeID(dst, m.Member)
	dst = wire.AppendBool(dst, m.Gone)
	return wire.AppendVarint(dst, int64(m.Hops))
}

func decodeGossipSub(r *wire.Reader) message {
	var m gossipSub
	m.AF = filter.ConsumeAttrFilter(r)
	m.Member = consumeNodeID(r)
	m.Gone = r.Bool()
	m.Hops = int(r.Varint())
	return m
}

func (m leave) appendBody(dst []byte) []byte {
	dst = m.AF.AppendWire(dst)
	dst = appendNodeID(dst, m.Member)
	return appendBranches(dst, m.Branches)
}

func decodeLeave(r *wire.Reader) message {
	var m leave
	m.AF = filter.ConsumeAttrFilter(r)
	m.Member = consumeNodeID(r)
	m.Branches = consumeBranches(r)
	return m
}

func (m branchUpdate) appendBody(dst []byte) []byte {
	dst = m.Parent.AppendWire(dst)
	return appendBranch(dst, m.Child)
}

func decodeBranchUpdate(r *wire.Reader) message {
	var m branchUpdate
	m.Parent = filter.ConsumeAttrFilter(r)
	m.Child = consumeBranch(r)
	return m
}

func (m publishTree) appendBody(dst []byte) []byte {
	dst = wire.AppendVarint(dst, int64(m.ID))
	dst = m.Event.AppendWire(dst)
	dst = wire.AppendString(dst, m.Attr)
	dst = m.AF.AppendWire(dst)
	dst = wire.AppendByte(dst, byte(m.Mode))
	dst = wire.AppendBool(dst, m.Up)
	return m.FromAF.AppendWire(dst)
}

func decodePublishTree(r *wire.Reader) message {
	var m publishTree
	m.ID = EventID(r.Varint())
	m.Event = filter.ConsumeEvent(r)
	m.Attr = r.String()
	m.AF = filter.ConsumeAttrFilter(r)
	m.Mode = consumeTraversalMode(r)
	m.Up = r.Bool()
	m.FromAF = filter.ConsumeAttrFilter(r)
	return m
}

func (m publishGroup) appendBody(dst []byte) []byte {
	dst = wire.AppendVarint(dst, int64(m.ID))
	dst = m.Event.AppendWire(dst)
	dst = m.AF.AppendWire(dst)
	return wire.AppendVarint(dst, int64(m.Hops))
}

func decodePublishGroup(r *wire.Reader) message {
	var m publishGroup
	m.ID = EventID(r.Varint())
	m.Event = filter.ConsumeEvent(r)
	m.AF = filter.ConsumeAttrFilter(r)
	m.Hops = int(r.Varint())
	return m
}

func (m heartbeat) appendBody(dst []byte) []byte {
	return wire.AppendVarint(dst, m.Seq)
}

func decodeHeartbeat(r *wire.Reader) message {
	return heartbeat{Seq: r.Varint()}
}

func (m heartbeatAck) appendBody(dst []byte) []byte {
	return wire.AppendVarint(dst, m.Seq)
}

func decodeHeartbeatAck(r *wire.Reader) message {
	return heartbeatAck{Seq: r.Varint()}
}

func (m viewExchange) appendBody(dst []byte) []byte {
	dst = m.AF.AppendWire(dst)
	dst = appendNodeIDs(dst, m.Members)
	dst = appendBranch(dst, m.Parent)
	dst = appendBranches(dst, m.Branches)
	dst = appendNodeID(dst, m.Leader)
	dst = appendNodeIDs(dst, m.CoLead)
	return wire.AppendBool(dst, m.Reply)
}

func decodeViewExchange(r *wire.Reader) message {
	var m viewExchange
	m.AF = filter.ConsumeAttrFilter(r)
	m.Members = consumeNodeIDs(r)
	m.Parent = consumeBranch(r)
	m.Branches = consumeBranches(r)
	m.Leader = consumeNodeID(r)
	m.CoLead = consumeNodeIDs(r)
	m.Reply = r.Bool()
	return m
}

func (m adopt) appendBody(dst []byte) []byte {
	dst = m.AF.AppendWire(dst)
	return appendBranch(dst, m.NewParent)
}

func decodeAdopt(r *wire.Reader) message {
	var m adopt
	m.AF = filter.ConsumeAttrFilter(r)
	m.NewParent = consumeBranch(r)
	return m
}

func (m coLeaderUpdate) appendBody(dst []byte) []byte {
	dst = m.AF.AppendWire(dst)
	dst = appendNodeID(dst, m.Leader)
	return appendNodeIDs(dst, m.CoLeaders)
}

func decodeCoLeaderUpdate(r *wire.Reader) message {
	var m coLeaderUpdate
	m.AF = filter.ConsumeAttrFilter(r)
	m.Leader = consumeNodeID(r)
	m.CoLeaders = consumeNodeIDs(r)
	return m
}

func (m rehome) appendBody(dst []byte) []byte {
	return m.AF.AppendWire(dst)
}

func decodeRehome(r *wire.Reader) message {
	return rehome{AF: filter.ConsumeAttrFilter(r)}
}

func (m rootInvite) appendBody(dst []byte) []byte {
	dst = wire.AppendString(dst, m.Attr)
	dst = appendNodeID(dst, m.Leader)
	dst = appendNodeIDs(dst, m.CoLeaders)
	dst = appendNodeIDs(dst, m.Members)
	return appendBranches(dst, m.Branches)
}

func decodeRootInvite(r *wire.Reader) message {
	var m rootInvite
	m.Attr = r.String()
	m.Leader = consumeNodeID(r)
	m.CoLeaders = consumeNodeIDs(r)
	m.Members = consumeNodeIDs(r)
	m.Branches = consumeBranches(r)
	return m
}

// WireSamples returns one representative instance of every protocol
// message type, as opaque payloads a transport can frame. It exists for
// transports' tests and benchmarks (the message types themselves are
// unexported) and for the golden-vector fixtures pinning the wire format.
func WireSamples() []any {
	af := filter.MustAttrFilter("price", filter.Gt("price", 100), filter.Lt("price", 200))
	child := filter.MustAttrFilter("price", filter.Gt("price", 120), filter.Lt("price", 160))
	sibling := filter.MustAttrFilter("price", filter.EqInt("price", 150))
	strf := filter.MustAttrFilter("sym", filter.Prefix("sym", "ac"))
	root := filter.UniversalFilter("price")
	ev := filter.MustEvent(
		filter.Assignment{Attr: "price", Val: filter.IntValue(150)},
		filter.Assignment{Attr: "sym", Val: filter.StringValue("acme")},
	)
	parent := Branch{AF: root, Nodes: []sim.NodeID{1, 2, 3}}
	childBranch := Branch{AF: child, Nodes: []sim.NodeID{7, 8}}
	return []any{
		findGroup{AF: af, At: root, Subscriber: 42, Mode: Generic, Hops: 3, Probe: true},
		joinAccept{AF: af, Wanted: strf, Leader: 9, CoLeaders: []sim.NodeID{10, 11},
			Members: []sim.NodeID{9, 10, 11, 12}, Parent: parent},
		createGroup{AF: child, Parent: parent, Adopted: []Branch{childBranch, {AF: sibling, Nodes: []sim.NodeID{13}}}},
		joinNotify{AF: af, Member: 21, Gone: true},
		gossipSub{AF: strf, Member: 33, Gone: false, Hops: 2},
		leave{AF: af, Member: 5, Branches: []Branch{childBranch}},
		branchUpdate{Parent: root, Child: childBranch},
		publishTree{ID: 77, Event: ev, Attr: "price", AF: af, Mode: RootBased, Up: true, FromAF: child},
		publishGroup{ID: 78, Event: ev, AF: af, Hops: 4},
		heartbeat{},
		heartbeatAck{},
		viewExchange{AF: af, Members: []sim.NodeID{1, 4, 6}, Parent: parent,
			Branches: []Branch{childBranch}, Leader: 1, CoLead: []sim.NodeID{4}, Reply: true},
		adopt{AF: child, NewParent: parent},
		coLeaderUpdate{AF: af, Leader: 2, CoLeaders: []sim.NodeID{3, 4}},
		rehome{AF: child},
		rootInvite{Attr: "price", Leader: 1, CoLeaders: []sim.NodeID{2},
			Members: []sim.NodeID{1, 2, 3}, Branches: []Branch{childBranch}},
	}
}
