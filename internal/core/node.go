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
	if cfg.K <= 0 {
		return nil, errors.New("core: invalid view parameters")
	}
	n := &Node{
		st: state{
			cfg:        cfg,
			subsByAttr: make(map[string][]indexedSub),
			lastSeen:   make(map[sim.NodeID]int64),
			suspected:  make(map[sim.NodeID]bool),
		},
	}
	n.mem = membershipSys{state: &n.st, dis: &n.dis, rep: &n.rep}
	n.dis = disseminationSys{state: &n.st}
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
	return append([]string(nil), n.st.groups.keys...)
}

// group returns the membership for the canonical key (test helper).
func (n *Node) group(key string) *membership {
	m, _ := n.st.groups.get(key)
	return m
}

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
	out := make(map[string]MembershipInfo, n.st.groups.len())
	for i, m := range n.st.groups.vals {
		lifecycle := "active"
		if m.state == stateJoining {
			lifecycle = "joining"
		}
		out[n.st.groups.keys[i]] = MembershipInfo{
			Filter:    m.af.String(),
			State:     lifecycle,
			IsRoot:    m.isRoot,
			Leader:    m.leader,
			CoLeaders: m.coLeaders.ids(),
			Members:   m.members.ids(),
			Parent:    append([]sim.NodeID(nil), m.parent.Nodes...),
			Branches:  m.branches.len(),
		}
	}
	return out
}

// Subscriptions returns all live subscriptions of the node, the directly
// routed ones first (group order), then the covered ones (cover order).
func (n *Node) Subscriptions() []filter.Subscription {
	var out []filter.Subscription
	for _, m := range n.st.groups.vals {
		out = append(out, m.subs...)
	}
	for _, e := range n.st.covered.vals {
		out = append(out, e.subs...)
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
	if n.st.covered.len() == 0 {
		return nil
	}
	out := make(map[string]CoverEdge, n.st.covered.len())
	for i, e := range n.st.covered.vals {
		out[n.st.covered.keys[i]] = CoverEdge{Covered: e.af, Coverer: e.coverer, Subs: len(e.subs)}
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
	for i, m := range n.st.groups.vals {
		total += int64(len(n.st.groups.keys[i]))
		total += int64(m.members.len()+m.coLeaders.len()+1) * idBytes // views + leader
		total += int64(len(m.parent.AF.Key())) + int64(len(m.parent.Nodes))*idBytes
		for j, b := range m.branches.vals {
			total += int64(len(m.branches.keys[j])) + int64(len(b.Nodes))*idBytes
		}
	}
	for i, e := range n.st.covered.vals {
		total += int64(len(n.st.covered.keys[i])) + int64(len(e.coverer))
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
	if now%viewExchangePeriod == int64(n.ID())%viewExchangePeriod {
		n.rep.viewExchangeRound()
	}
	n.gcSeen(now)
}

// gcSeen periodically expires the memories of all subsystems.
func (n *Node) gcSeen(now int64) {
	if now%dedupSweep != 0 {
		return
	}
	n.dis.seen.expire(now)
	n.dis.routed.expire(now)
	n.mem.rumours.expire(now)
	for _, m := range n.st.groups.vals {
		m.departed.expire(now)
	}
}
