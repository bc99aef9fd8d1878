// Package core implements the DPS overlay protocol — the paper's primary
// contribution (§3–§4): subscription-driven semantic clustering of
// subscribers into per-attribute trees of groups, with pluggable tree
// traversal (root-based or generic) and group communication (leader-based
// or epidemic), plus the self-healing machinery of §4.3 (heartbeat failure
// detection, co-leader promotion, view repair, duplicate merging).
//
// Nodes are written sans-IO against the sim.Env contract, so the same
// protocol code runs on the deterministic cycle engine (internal/sim) and
// on the live goroutine runtime (internal/livenet).
//
// # Ordering invariant
//
// Every loop over a node's groups or a membership's branches iterates in
// canonical (sorted) key order, and that order now comes from maintained
// slices — Node.groupOrder, Node.joinOrder, membership.branchOrder —
// updated incrementally when a membership or branch is added or removed,
// not from re-sorting map keys at each call site. All map mutations must
// go through the maintaining helpers (addGroup/removeGroup,
// setBranch/deleteBranch, addJoining/removeJoining); loops that can
// mutate the maps mid-iteration take a snapshot copy first. The invariant
// (maintained slice ≡ sorted map keys) is asserted by
// TestMaintainedOrderInvariant, and trace determinism (same seed ⇒
// identical simulation) by TestProtocolTraceDeterminism.
package core

import (
	"math/rand"
	"sort"
	"sync"

	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/metrics"
	"github.com/dps-overlay/dps/internal/sim"
)

// EventID identifies a published event for deduplication and delivery
// accounting. Callers of Publish supply it (the facade and the experiment
// harness both use counters).
type EventID int64

// TraversalMode selects how subscriptions and publications locate groups
// in a tree (paper §4.1).
type TraversalMode uint8

// Traversal modes.
const (
	// RootBased traversal always enters a tree at its root and descends.
	// Lower latency, but the root is a hotspot and must be known.
	RootBased TraversalMode = iota + 1
	// Generic traversal may enter at any node of the tree and walks both
	// up and down. More messages, better load spreading.
	Generic
)

// String returns the mode name used in the paper's plots.
func (m TraversalMode) String() string {
	if m == Generic {
		return "generic"
	}
	return "root"
}

// CommMode selects how messages travel inside and between groups
// (paper §4.2).
type CommMode uint8

// Communication modes.
const (
	// LeaderBased: a leader plus Kc co-leaders relay all group traffic.
	LeaderBased CommMode = iota + 1
	// Epidemic: every member gossips with fanout k inside the group and
	// k' contacts per adjacent group; forwarding probability decays with
	// hop count.
	Epidemic
)

// String returns the mode name used in the paper's plots.
func (m CommMode) String() string {
	if m == Epidemic {
		return "epidemic"
	}
	return "leader"
}

// Config parameterises a DPS node. The zero value is unusable; start from
// DefaultConfig.
//
// Repair is not configurable: every node runs the §4.3 healing machinery
// together with the repair rules the chaos harness's invariant checker
// (internal/chaos) showed the overlay needs to return to a legal
// configuration in bounded time from any state:
//
//   - leadership deference cycles (two members of one group each
//     believing the other leads, bouncing walks forever after crossed
//     merges) resolve deterministically to the lower id;
//   - a dissolving deposed root tells its members and co-owner mirrors
//     to re-walk or drop their stale mirror state, instead of leaving
//     them mirroring a root that no longer exists;
//   - leaderless root mirrors recover through the directory after the
//     promotion grace period (reassert, reclaim, or demote) instead of
//     idling forever;
//   - mutual leadership deference surfaced by the leader ping (each of
//     two live holders believing the other leads — a corrupted
//     abdication no failure detector can see) anchors to the lower id;
//   - tree edges are re-validated against the containment discipline
//     each exchange round: a predview label that fails to include the
//     group's own filter is discarded (the group re-walks) and a branch
//     label escaping the group's filter is dropped — the repairs behind
//     the corruption fault family of internal/chaos (see
//     Node.ApplyCorruption);
//   - a walk unanswered past its retry budget self-anchors its group in
//     place, and members remember departures for SeenTTL steps so
//     view exchanges cannot resurrect them.
type Config struct {
	Traversal TraversalMode
	Comm      CommMode

	// K bounds the predview/succview contact lists (pointers kept per
	// adjacent group, spanning multiple levels for fault tolerance).
	K int
	// Kc is the number of co-leaders a leader maintains (leader mode).
	Kc int
	// Fanout is the paper's k: group members infected per gossip round
	// (epidemic mode).
	Fanout int
	// CrossFanout is the paper's k': contacts addressed in an adjacent
	// group when an event or subscription crosses a tree edge (epidemic
	// mode; leader mode always addresses one contact and falls back on
	// the next upon suspicion).
	CrossFanout int
	// SubFanout is the paper's Fs: gossip fanout for membership updates
	// (epidemic mode).
	SubFanout int
	// ForwardDecay is the per-hop multiplier on the forwarding
	// probability of gossiped messages ("probability p is reduced
	// proportionally to the number of times the message is forwarded").
	// The default of 0.9 makes a fanout-1 gossip chain infect ≈10 members
	// in expectation, matching the ≈0.9 delivery the paper reports for
	// the baseline epidemic configuration.
	ForwardDecay float64
	// GroupViewSize bounds the partial group view of epidemic members.
	GroupViewSize int
	// GossipRounds is how many gossip rounds a member re-offers an event
	// it holds (epidemic mode). DPS's epidemic scheme descends from
	// bimodal multicast [Birman et al.], where processes gossip a message
	// for a bounded number of rounds rather than exactly once.
	GossipRounds int

	// HBMin/HBMax bound the per-node heartbeat period, drawn uniformly —
	// the paper's "failure detection interval varying randomly from 10 to
	// 25 steps".
	HBMin, HBMax int64
	// HBTimeoutMult declares a peer suspect after HBTimeoutMult heartbeat
	// periods without any sign of life.
	HBTimeoutMult int64
	// ViewExchangePeriod is the anti-entropy period (steps) of the
	// epidemic merge process (§4.2.2) and of leader view refresh.
	ViewExchangePeriod int64
	// PendingTTL bounds how long a publication waits for a group whose
	// construction is still in flight (the paper's blocking flag).
	PendingTTL int64
	// SeenTTL bounds the event-deduplication memory.
	SeenTTL int64

	// Deprecated: strict repair is the protocol; this field is ignored.
	StrictRepair bool

	// CoverRouting turns on the subscription-covering layer: before a
	// subscription propagates into the overlay, the node checks its own
	// routing state — a filter already routed (or walking) that includes
	// the new one (Def. 3 inclusion) stops the propagation and records a
	// covered→coverer edge in the node's covering table instead of
	// building a group of its own; a new filter that includes an
	// in-flight walk widens that walk and folds the narrow filter under
	// it. Unsubscribing a coverer re-propagates
	// every subscription it was covering. Covering is strictly node-local
	// — the walk protocol and the group shapes other nodes see are
	// untouched — so delivery is exactly the uncovered protocol's, with
	// fewer groups. Requires LeaderBased communication: a covered
	// subscription's deliveries ride on the coverer group's leader
	// diffusion, which epidemic partial views cannot guarantee. Off by
	// default so the pinned paper experiments (Table 1 protocol, Fig. 3a)
	// replay byte-identical traces.
	CoverRouting bool

	// Directory is the attribute→tree bootstrap service shared by the
	// deployment (see Directory). Required.
	Directory Directory
}

// DefaultConfig returns the parameters used throughout the paper's
// evaluation: root-based leader communication, K=3 multi-level contacts,
// Kc=2 co-leaders, epidemic fanouts of 1, heartbeat periods of 10–25
// steps.
func DefaultConfig() Config {
	return Config{
		Traversal:          RootBased,
		Comm:               LeaderBased,
		K:                  3,
		Kc:                 2,
		Fanout:             1,
		CrossFanout:        1,
		SubFanout:          2,
		ForwardDecay:       0.9,
		GroupViewSize:      8,
		GossipRounds:       3,
		HBMin:              10,
		HBMax:              25,
		HBTimeoutMult:      2,
		ViewExchangePeriod: 30,
		PendingTTL:         50,
		SeenTTL:            200,
	}
}

// Directory is the bootstrap service that connects the per-attribute trees
// (paper §3: "trees are connected among each other, for example by letting
// all owners know each other or by keeping at each node a cache of nodes
// belonging to other trees"; contact points are located with random
// walks). This implementation substitutes a shared registry for the random
// walks — the same shortcut the paper's own simulator takes implicitly —
// while keeping the interface narrow enough that a DHT- or walk-based
// implementation can drop in.
type Directory interface {
	// Owner returns the current root owner of the attribute's tree.
	Owner(attr string) (sim.NodeID, bool)
	// ClaimOwner makes node the owner if the attribute has no live owner
	// or the previous owner equals prev. It returns the resulting owner.
	ClaimOwner(attr string, node sim.NodeID) sim.NodeID
	// ReplaceOwner unconditionally installs node as owner (root healing).
	ReplaceOwner(attr string, node sim.NodeID)
	// AddContact registers a tree member as a potential generic-traversal
	// entry point.
	AddContact(attr string, node sim.NodeID)
	// DropContact removes a member (unsubscribe or observed crash).
	DropContact(attr string, node sim.NodeID)
	// Contact returns a random entry point into the attribute's tree.
	Contact(attr string, rng *rand.Rand) (sim.NodeID, bool)
}

// SharedDirectory is the default in-process Directory.
type SharedDirectory struct {
	mu       sync.Mutex
	owners   map[string]sim.NodeID
	contacts map[string][]sim.NodeID
	pos      map[string]map[sim.NodeID]int // contact index for O(1) removal
}

// NewSharedDirectory returns an empty directory.
func NewSharedDirectory() *SharedDirectory {
	return &SharedDirectory{
		owners:   make(map[string]sim.NodeID),
		contacts: make(map[string][]sim.NodeID),
		pos:      make(map[string]map[sim.NodeID]int),
	}
}

var _ Directory = (*SharedDirectory)(nil)

// Owner implements Directory.
func (d *SharedDirectory) Owner(attr string) (sim.NodeID, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id, ok := d.owners[attr]
	return id, ok
}

// ClaimOwner implements Directory.
func (d *SharedDirectory) ClaimOwner(attr string, node sim.NodeID) sim.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cur, ok := d.owners[attr]; ok {
		return cur
	}
	d.owners[attr] = node
	return node
}

// ReplaceOwner implements Directory.
func (d *SharedDirectory) ReplaceOwner(attr string, node sim.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.owners[attr] = node
}

// AddContact implements Directory.
func (d *SharedDirectory) AddContact(attr string, node sim.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.pos[attr]
	if !ok {
		p = make(map[sim.NodeID]int)
		d.pos[attr] = p
	}
	if _, dup := p[node]; dup {
		return
	}
	p[node] = len(d.contacts[attr])
	d.contacts[attr] = append(d.contacts[attr], node)
}

// DropContact implements Directory.
func (d *SharedDirectory) DropContact(attr string, node sim.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.pos[attr]
	i, ok := p[node]
	if !ok {
		return
	}
	list := d.contacts[attr]
	last := len(list) - 1
	list[i] = list[last]
	p[list[i]] = i
	d.contacts[attr] = list[:last]
	delete(p, node)
}

// Contact implements Directory.
func (d *SharedDirectory) Contact(attr string, rng *rand.Rand) (sim.NodeID, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	list := d.contacts[attr]
	if len(list) == 0 {
		return 0, false
	}
	return list[rng.Intn(len(list))], true
}

// Contacts returns a sorted copy of the registered members of a tree
// (test/diagnostic helper).
func (d *SharedDirectory) Contacts(attr string) []sim.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]sim.NodeID, len(d.contacts[attr]))
	copy(out, d.contacts[attr])
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// --- Messages -------------------------------------------------------------

// Branch describes one child group edge as seen from the parent: the
// child's filter and up to K contact nodes inside (or below) it.
type Branch struct {
	AF    filter.AttrFilter
	Nodes []sim.NodeID
}

// findGroup walks a tree looking for the position of a new subscription
// (paper's FIND GROUP).
type findGroup struct {
	AF filter.AttrFilter // group label wanted
	// At is the group expected to process this step; zero on generic
	// entry at an arbitrary contact.
	At         filter.AttrFilter
	Subscriber sim.NodeID
	Mode       TraversalMode
	Hops       int
	// Probe marks a periodic re-traversal (§4.1's duplicate detection):
	// the walk merges the prober into the canonical group if one exists,
	// but never creates a group.
	Probe bool
}

// joinAccept tells the subscriber it belongs to an existing group
// (paper's SUBSCRIBE TO).
type joinAccept struct {
	AF filter.AttrFilter
	// Wanted echoes the filter the subscriber asked for; it can differ
	// from AF in syntax (same extension) for string filters.
	Wanted    filter.AttrFilter
	Leader    sim.NodeID
	CoLeaders []sim.NodeID
	Members   []sim.NodeID // full view (leader mode) or sample (epidemic)
	Parent    Branch       // contacts toward the predecessor group
}

// createGroup tells the subscriber to found a new group as a child of the
// sender's group (paper's CREATE GROUP).
type createGroup struct {
	AF      filter.AttrFilter
	Parent  Branch   // the designated predecessor's contacts
	Adopted []Branch // former siblings now children of the new group
}

// joinNotify spreads a membership change inside a group.
type joinNotify struct {
	AF     filter.AttrFilter
	Member sim.NodeID
	Gone   bool // member left (unsubscribe) instead of joined
}

// gossipSub is the epidemic membership update (paper's GOSSIP SUB).
type gossipSub struct {
	AF     filter.AttrFilter
	Member sim.NodeID
	Gone   bool
	Hops   int
}

// adopt re-parents a whole group: its members replace their predview.
type adopt struct {
	AF        filter.AttrFilter // the group being re-parented
	NewParent Branch
}

// coLeaderUpdate announces the current leader and co-leader set to group
// members (leader mode).
type coLeaderUpdate struct {
	AF        filter.AttrFilter
	Leader    sim.NodeID
	CoLeaders []sim.NodeID
}

// publishTree carries an event across groups of one attribute tree
// (paper's PUBLISH).
type publishTree struct {
	ID    EventID
	Event filter.Event
	Attr  string
	// AF is the target group expected to process this hop; zero on
	// generic entry at an arbitrary contact.
	AF   filter.AttrFilter
	Mode TraversalMode
	// Up marks generic-mode upward propagation toward the root.
	Up bool
	// FromAF is the group the message came from (to skip re-descending
	// into it when moving up).
	FromAF filter.AttrFilter
}

// publishGroup diffuses an event inside a group (paper's PUBLISH GROUP).
type publishGroup struct {
	ID    EventID
	Event filter.Event
	AF    filter.AttrFilter
	Hops  int
}

// heartbeat probes a monitored peer; heartbeatAck answers it. The Seq
// field is reserved wire space (currently always zero): it predates the
// binary codec and is kept so the golden wire vectors stay stable.
type heartbeat struct{ Seq int64 }
type heartbeatAck struct{ Seq int64 }

// viewExchange is the periodic anti-entropy message: a sample of the
// sender's views for one group, also implementing the paper's merge
// process (§4.2.2).
type viewExchange struct {
	AF       filter.AttrFilter
	Members  []sim.NodeID
	Parent   Branch
	Branches []Branch
	Leader   sim.NodeID
	CoLead   []sim.NodeID
	Reply    bool // set on responses to stop the exchange after one round trip
}

// leave announces a voluntary departure from a group.
type leave struct {
	AF       filter.AttrFilter
	Member   sim.NodeID
	Branches []Branch // set when the last member dissolves the group
}

// branchUpdate informs a parent group that contacts of one of its child
// branches changed (new leader, healed membership).
type branchUpdate struct {
	Parent filter.AttrFilter // the parent group being addressed
	Child  Branch
}

// rehome tells a group to re-run its placement walk from the current tree
// root — sent by a deposed duplicate root when the merge process resolves
// concurrent tree creations (§4.1: duplicate trees are detected
// periodically and merged).
type rehome struct {
	AF filter.AttrFilter
}

// rootInvite recruits a subscriber as a co-owner of an attribute tree: it
// mirrors the root group's state so that routing through the root (and
// ownership itself) survives the owner's crash — the root of a DPS tree is
// a populated group, not a single node.
type rootInvite struct {
	Attr      string
	Leader    sim.NodeID
	CoLeaders []sim.NodeID
	Members   []sim.NodeID
	Branches  []Branch
}

// MetricKind implementations classify traffic for the figures.
func (publishTree) MetricKind() metrics.Kind  { return metrics.KindEvent }
func (publishGroup) MetricKind() metrics.Kind { return metrics.KindEvent }
func (heartbeat) MetricKind() metrics.Kind    { return metrics.KindHeartbeat }
func (heartbeatAck) MetricKind() metrics.Kind { return metrics.KindHeartbeat }

var (
	_ metrics.Kinded = publishTree{}
	_ metrics.Kinded = publishGroup{}
	_ metrics.Kinded = heartbeat{}
	_ metrics.Kinded = heartbeatAck{}
)
