package core

import (
	"errors"
	"fmt"

	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
)

// Node is one DPS peer: subscriber, publisher and router at once. It is
// driven by an engine through the sim.Process interface.
//
// Internally the node is three protocol subsystems over one shared state,
// connected by the kernel's typed dispatch table (kernel.go):
//
//   - membership (membership.go): §3/§4.1 group discovery, joins, views
//   - dissemination (dissemination.go): §4.1/§4.2 event routing, delivery
//   - repair (repair.go): §4.3 heartbeats, healing, promotion, merges
//
// The subsystems embed *state (state.go) — the narrow surface of shared
// data — and reach each other only through the explicit references wired
// in NewNode, so each protocol machine can be read, tested and
// fault-injected on its own.
type Node struct {
	st  state
	mem membershipSys
	dis disseminationSys
	rep repairSys
}

// kernelAPI catalogues the mutating shared-state surface the subsystems
// are expected to go through. It is documentation with a compile-time
// anchor, not an enforcement mechanism: subsystems embed *state directly
// (field promotion keeps the hot paths free of interface dispatch), so
// the boundary holds by convention — state-mutation helpers listed here,
// read access via the promoted fields documented in state.go, everything
// else via an explicit sibling-subsystem reference — and is exercised by
// the order-invariant tests, which fail when a mutation bypasses the
// maintaining helpers.
type kernelAPI interface {
	ID() sim.NodeID
	send(to sim.NodeID, msg message)
	addGroup(key string, m *membership)
	removeGroup(key string)
	addJoining(key string, m *membership)
	removeJoining(key string)
	snapshotGroupKeys() []string
	setActive(m *membership)
	setJoining(m *membership)
	dropMembership(key string)
	indexSub(sub filter.Subscription)
	unindexSub(sub filter.Subscription)
	refillLive(v *view, ids []sim.NodeID)
	addCover(key string, e *coverEntry)
	removeCover(key string)
	hasCoverEdges(covererKey string) bool
	retargetCoverEdges(oldKey, newKey string)
}

var _ kernelAPI = (*state)(nil)

var _ sim.Process = (*Node)(nil)

// NewNode builds a node with the given configuration. The configuration's
// Directory must be set.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Directory == nil {
		return nil, errors.New("core: Config.Directory is required")
	}
	if cfg.Traversal != RootBased && cfg.Traversal != Generic {
		return nil, fmt.Errorf("core: invalid traversal mode %d", cfg.Traversal)
	}
	if cfg.Comm != LeaderBased && cfg.Comm != Epidemic {
		return nil, fmt.Errorf("core: invalid communication mode %d", cfg.Comm)
	}
	if cfg.K <= 0 || cfg.HBMin <= 0 || cfg.HBMax < cfg.HBMin {
		return nil, errors.New("core: invalid view or heartbeat parameters")
	}
	if cfg.CoverRouting && cfg.Comm != LeaderBased {
		// Epidemic group views are partial samples with probabilistic
		// diffusion: a covered member has no deterministic delivery path,
		// so covering is only sound under leader-based communication.
		return nil, errors.New("core: CoverRouting requires leader-based communication")
	}
	n := &Node{
		st: state{
			cfg:        cfg,
			groups:     make(map[string]*membership),
			joining:    make(map[string]*membership),
			subsByAttr: make(map[string][]indexedSub),
			lastSeen:   make(map[sim.NodeID]int64),
			suspected:  make(map[sim.NodeID]bool),
		},
	}
	n.mem = membershipSys{
		state:   &n.st,
		dis:     &n.dis,
		rep:     &n.rep,
		rumours: make(map[string]int64),
	}
	n.dis = disseminationSys{
		state:  &n.st,
		seen:   make(map[EventID]int64),
		routed: make(map[routeKey]int64),
	}
	n.rep = repairSys{
		state:     &n.st,
		mem:       &n.mem,
		hbScratch: newView(),
	}
	return n, nil
}

// OnEventHook registers the contacted hook: fired on the first receipt of
// each event, whether or not a local subscription matches.
func (n *Node) OnEventHook(fn func(EventID, filter.Event)) { n.dis.onEvent = fn }

// OnDeliverHook registers the delivery hook: fired when a first-received
// event matches at least one local subscription (the paper's Notify).
func (n *Node) OnDeliverHook(fn func(EventID, filter.Event)) { n.dis.onDeliver = fn }

// Attach implements sim.Process.
func (n *Node) Attach(env sim.Env) {
	n.st.env = env
	n.rep.nextHB = n.rep.hbPeriod()
}

// ID returns the node's identifier (valid after Attach).
func (n *Node) ID() sim.NodeID { return n.st.ID() }

// Memberships returns the canonical keys of the groups the node currently
// belongs to (diagnostic/test helper).
func (n *Node) Memberships() []string {
	return append([]string(nil), n.st.groupOrder...)
}

// group returns the membership for the canonical key (test helper).
func (n *Node) group(key string) *membership { return n.st.groups[key] }

// MembershipInfo is a diagnostic snapshot of one group membership.
type MembershipInfo struct {
	Filter    string
	State     string
	IsRoot    bool
	Leader    sim.NodeID
	CoLeaders []sim.NodeID
	Members   []sim.NodeID
	Parent    []sim.NodeID
	Branches  int
}

// Inspect returns diagnostic snapshots of every membership, keyed by
// canonical filter key (for tools and tests; not part of the protocol).
func (n *Node) Inspect() map[string]MembershipInfo {
	out := make(map[string]MembershipInfo, len(n.st.groups))
	for key, m := range n.st.groups {
		lifecycle := "active"
		if m.state == stateJoining {
			lifecycle = "joining"
		}
		out[key] = MembershipInfo{
			Filter:    m.af.String(),
			State:     lifecycle,
			IsRoot:    m.isRoot,
			Leader:    m.leader,
			CoLeaders: m.coLeaders.ids(),
			Members:   m.members.ids(),
			Parent:    append([]sim.NodeID(nil), m.parent.Nodes...),
			Branches:  len(m.branches),
		}
	}
	return out
}

// Subscriptions returns all live subscriptions of the node, the directly
// routed ones first (group order), then the covered ones (cover order).
func (n *Node) Subscriptions() []filter.Subscription {
	var out []filter.Subscription
	for _, key := range n.st.groupOrder {
		m := n.st.groups[key]
		out = append(out, m.subs...)
	}
	for _, key := range n.st.coverOrder {
		out = append(out, n.st.covered[key].subs...)
	}
	return out
}

// CoverEdge is one covering-table entry as seen from outside: the
// covered filter, the canonical key of the routed membership it rides
// on, and how many local subscriptions the entry carries.
type CoverEdge struct {
	Covered filter.AttrFilter
	Coverer string
	Subs    int
}

// CoverTable returns the covering relation keyed by covered filter key
// (diagnostic/test helper). The soundness contract a checker can assert:
// every Coverer names a held membership whose filter strictly includes
// Covered.
func (n *Node) CoverTable() map[string]CoverEdge {
	if len(n.st.covered) == 0 {
		return nil
	}
	out := make(map[string]CoverEdge, len(n.st.covered))
	for key, e := range n.st.covered {
		out[key] = CoverEdge{Covered: e.af, Coverer: e.coverer, Subs: len(e.subs)}
	}
	return out
}

// RoutingStateBytes estimates the bytes of routing state the node holds:
// group labels, group views, tree edges (predview + succview) and the
// covering table. It is an accounting estimator (keys at their encoded
// length, node ids at 8 bytes), deterministic for a deterministic run —
// the routing-table size metric of the scale experiment.
func (n *Node) RoutingStateBytes() int64 {
	const idBytes = 8
	var total int64
	for _, key := range n.st.groupOrder {
		m := n.st.groups[key]
		total += int64(len(key))
		total += int64(m.members.len()+m.coLeaders.len()+1) * idBytes // views + leader
		total += int64(len(m.parent.AF.Key())) + int64(len(m.parent.Nodes))*idBytes
		for _, bk := range m.branchOrder {
			total += int64(len(bk)) + int64(len(m.branches[bk].Nodes))*idBytes
		}
	}
	for _, key := range n.st.coverOrder {
		total += int64(len(key)) + int64(len(n.st.covered[key].coverer))
	}
	return total
}

// TreeForwards reports how many inter-group tree forwards a wire message
// carries: 1 for a publishTree hop, 0 for everything else (including
// intra-group publishGroup diffusion). The fan-out-suppression metric
// counts these on the engine's send hook: fewer routed groups mean fewer
// tree hops per event, independent of how wide each group's internal
// diffusion is.
func TreeForwards(msg any) int64 {
	if _, ok := msg.(publishTree); ok {
		return 1
	}
	return 0
}

// InspectBranches returns every branch this node holds across its
// memberships, keyed by the child filter's canonical key (diagnostics).
func (n *Node) InspectBranches() map[string][]sim.NodeID {
	out := make(map[string][]sim.NodeID)
	for _, m := range n.st.groups {
		for key, b := range m.branches {
			out[key] = append([]sim.NodeID(nil), b.Nodes...)
		}
	}
	return out
}

// Subscribe registers the subscription with the overlay. The node joins
// the tree of the subscription's first attribute, at the group of its
// attribute filter there. An unsatisfiable filter is rejected.
func (n *Node) Subscribe(sub filter.Subscription) error {
	return n.mem.subscribe(sub)
}

// Unsubscribe withdraws one previously registered subscription. When the
// last subscription behind a membership goes, the node leaves the group.
func (n *Node) Unsubscribe(sub filter.Subscription) error {
	return n.mem.unsubscribe(sub)
}

// Publish injects an event into the overlay under the given id: one
// publication per attribute tree the event touches (paper §4.1).
func (n *Node) Publish(id EventID, ev filter.Event) error {
	return n.dis.publish(id, ev)
}

// OnMessage implements sim.Process: liveness bookkeeping, kernel
// dispatch, then the self-message drain.
func (n *Node) OnMessage(from sim.NodeID, msg any) {
	n.st.lastSeen[from] = n.st.env.Now()
	if n.st.suspected[from] {
		delete(n.st.suspected, from) // peer came back: stop suspecting
	}
	n.dispatch(from, msg)
	n.drainSelf()
}

// OnTick implements sim.Process: heartbeats, suspicion checks, join
// retries, pending-publication expiry, anti-entropy. The calling order is
// part of the determinism contract — it must match the pre-kernel
// monolith step for step.
func (n *Node) OnTick() {
	now := n.st.env.Now()
	if now >= n.rep.nextHB {
		n.rep.heartbeatRound(now)
		n.rep.nextHB = now + n.rep.hbPeriod()
	}
	n.mem.retryJoins(now)
	n.mem.recoverOrphanedCovers()
	n.dis.expirePending(now)
	n.dis.gossipHot(now)
	n.drainSelf()
	if n.st.cfg.ViewExchangePeriod > 0 && now%n.st.cfg.ViewExchangePeriod == int64(n.ID())%n.st.cfg.ViewExchangePeriod {
		n.rep.viewExchangeRound()
	}
	n.gcSeen(now)
}

// gcSeen periodically expires the dedup memories of all subsystems.
func (n *Node) gcSeen(now int64) {
	if n.st.cfg.SeenTTL <= 0 || now%64 != 0 {
		return
	}
	n.dis.gcDedup(now)
	n.mem.gcRumours(now)
	n.mem.gcDeparted(now)
}
