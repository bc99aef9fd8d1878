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
// Every loop over a node's groups, its covering edges or a membership's
// branches iterates in canonical (sorted) key order. Each of these key
// spaces is one table (state.go): sorted keys and their values in two
// parallel slices, written only by the table's own get/put/del/deleteIf,
// so a range over its values is the canonical order and there is no
// second index to keep in step. The walking memberships are the groups
// in stateJoining, not a separate set. Loops that can mutate a table
// mid-iteration walk a snapshot of its keys and look each one up again.
// TestTableMatchesSortedMapProperty checks the table against a map whose
// keys are sorted on demand, and TestProtocolTraceDeterminism checks
// trace determinism (same seed ⇒ identical simulation).
package core

import (
	"math/rand"
	"slices"
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
//     place, and members remember departures for dedupTTL steps so
//     view exchanges cannot resurrect them.
//
// The paper's fixed timings and view sizes are the constants below, not
// settings.
type Config struct {
	Traversal TraversalMode
	Comm      CommMode

	// K bounds the predview/succview contact lists (pointers kept per
	// adjacent group, spanning multiple levels for fault tolerance).
	K int
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
	// GossipRounds is how many gossip rounds a member re-offers an event
	// it holds (epidemic mode). DPS's epidemic scheme descends from
	// bimodal multicast [Birman et al.], where processes gossip a message
	// for a bounded number of rounds rather than exactly once.
	GossipRounds int

	// Deprecated: strict repair is the protocol; this field is ignored.
	StrictRepair bool

	// Directory is the attribute→tree bootstrap service shared by the
	// deployment (see Directory). Required.
	Directory Directory
}

// DefaultConfig returns the parameters used throughout the paper's
// evaluation: root-based leader communication, K=3 multi-level contacts
// and epidemic fanouts of 1.
func DefaultConfig() Config {
	return Config{
		Traversal:    RootBased,
		Comm:         LeaderBased,
		K:            3,
		Fanout:       1,
		CrossFanout:  1,
		SubFanout:    2,
		ForwardDecay: 0.9,
		GossipRounds: 3,
	}
}

// The protocol's fixed timings (in steps) and view sizes. Every node of a
// deployment runs the same values.
const (
	// numCoLeaders is the paper's Kc: co-leaders a leader maintains
	// (leader mode, §4.2.1).
	numCoLeaders = 2
	// groupViewSize bounds the partial group view of epidemic members
	// (§4.2.2).
	groupViewSize = 8

	// hbMin and hbMax bound the per-node heartbeat period, drawn
	// uniformly — the paper's "failure detection interval varying
	// randomly from 10 to 25 steps" (§4.3).
	hbMin, hbMax = 10, 25
	// hbTimeoutMult declares a peer suspect after hbTimeoutMult × hbMax
	// steps without any sign of life (§4.3).
	hbTimeoutMult = 2
	// viewExchangePeriod is the anti-entropy period of the epidemic merge
	// process (§4.2.2) and of leader view refresh.
	viewExchangePeriod = 30

	// pendingTTL bounds how long a publication waits for a group whose
	// construction is still in flight (the paper's blocking flag, §4.1).
	pendingTTL = 50
	// dedupTTL is how long a memory (event and routing dedup, rumours,
	// departures) keeps a mark; see memory in state.go.
	dedupTTL = 200
	// dedupSweep is the period of the sweep that expires those marks.
	dedupSweep = 64

	// joinRetryAfter re-issues a findGroup walk unanswered this long.
	joinRetryAfter = 30
	// ownerEscalateRetries: past this many unanswered walks the joiner
	// claims the tree's ownership itself (a dead owner nobody replaced).
	ownerEscalateRetries = 5
	// selfAnchorRetries: past this many unanswered walks the joiner
	// anchors its group in place (the bounded-join backstop).
	selfAnchorRetries = 10
	// maxGossipHops hard-bounds rumour lifetimes: bounded partial views
	// can evict and re-learn members indefinitely, so probability decay
	// alone does not guarantee termination when configured close to 1.
	maxGossipHops = 32
)

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

// SharedDirectory is the in-process Directory, with step-snapshot
// semantics for the deterministic cycle engine (sim.Service).
//
// While a step is open (between BeginStep and EndStep), reads (Owner,
// Contact) serve the state committed at the end of the previous step and
// writes (AddContact, DropContact, ClaimOwner, ReplaceOwner) are buffered
// and applied at EndStep under fixed conflict rules, so every node of a
// step observes the same directory whatever order the executor runs them
// in — simulation traces are bit-identical across worker counts. Outside
// a step (live engines never open one; harness-side calls between steps)
// operations apply immediately, first claim winning.
//
// Conflict rules at commit, chosen for order-independence:
//
//   - ReplaceOwner beats ClaimOwner; among several same-step writers of
//     one attribute the lowest NodeID wins. A claim only lands if the
//     attribute still has no owner. Optimistic concurrent claimants that
//     lose the commit are healed by the protocol's duplicate-tree merge
//     machinery (§4.1), exactly like concurrent tree creations in a real
//     deployment.
//   - A contact both added and dropped in one step stays dropped
//     (conservative: drops come from crash observations and leaves).
//
// Contact lists are kept sorted by NodeID so a draw depends only on the
// committed membership set, never on insertion order. All methods are
// safe for concurrent use.
type SharedDirectory struct {
	mu       sync.Mutex
	deferred bool

	owners   map[string]sim.NodeID
	contacts map[string][]sim.NodeID // sorted ascending

	pendClaim map[string]sim.NodeID // lowest claimant per attr
	pendOwner map[string]sim.NodeID // lowest ReplaceOwner per attr
	pendAdd   map[string]map[sim.NodeID]bool
	pendDrop  map[string]map[sim.NodeID]bool
}

var (
	_ Directory   = (*SharedDirectory)(nil)
	_ sim.Service = (*SharedDirectory)(nil)
)

// NewSharedDirectory returns an empty directory. On the cycle engine,
// register it with AddService so it learns the step boundaries.
func NewSharedDirectory() *SharedDirectory {
	return &SharedDirectory{
		owners:    make(map[string]sim.NodeID),
		contacts:  make(map[string][]sim.NodeID),
		pendClaim: make(map[string]sim.NodeID),
		pendOwner: make(map[string]sim.NodeID),
		pendAdd:   make(map[string]map[sim.NodeID]bool),
		pendDrop:  make(map[string]map[sim.NodeID]bool),
	}
}

// Deprecated: SharedDirectory has the step-snapshot semantics; use it.
type SteppedDirectory = SharedDirectory

// Deprecated: use NewSharedDirectory.
func NewSteppedDirectory() *SharedDirectory { return NewSharedDirectory() }

// BeginStep implements sim.Service: subsequent writes are buffered until
// EndStep and reads serve the committed snapshot.
func (d *SharedDirectory) BeginStep(int64) {
	d.mu.Lock()
	d.deferred = true
	d.mu.Unlock()
}

// EndStep implements sim.Service: buffered writes commit under the fixed
// conflict rules and immediate mode resumes.
func (d *SharedDirectory) EndStep(int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	// Ownership: ReplaceOwner first (it wins), then claims on still
	// ownerless attributes. Per-attribute values are already reduced to
	// the lowest writer, so map iteration order is immaterial.
	for attr, node := range d.pendOwner {
		d.owners[attr] = node
		delete(d.pendOwner, attr)
	}
	for attr, node := range d.pendClaim {
		if _, ok := d.owners[attr]; !ok {
			d.owners[attr] = node
		}
		delete(d.pendClaim, attr)
	}
	// Contacts: drops win over same-step adds, regardless of the real-time
	// order the two calls raced in; apart from that rule each (attr, node)
	// op is independent of every other, so no ordering is needed.
	for attr, nodes := range d.pendAdd {
		drops := d.pendDrop[attr]
		for node := range nodes {
			if !drops[node] {
				d.addLocked(attr, node)
			}
		}
		delete(d.pendAdd, attr)
	}
	for attr, nodes := range d.pendDrop {
		for node := range nodes {
			d.dropLocked(attr, node)
		}
		delete(d.pendDrop, attr)
	}
	d.deferred = false
}

// Owner implements Directory against the committed snapshot.
func (d *SharedDirectory) Owner(attr string) (sim.NodeID, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id, ok := d.owners[attr]
	return id, ok
}

// ClaimOwner implements Directory. Mid-step, a claim on an ownerless
// attribute returns the claimant itself (optimistic, resolved at commit);
// otherwise the committed owner.
func (d *SharedDirectory) ClaimOwner(attr string, node sim.NodeID) sim.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cur, ok := d.owners[attr]; ok {
		return cur
	}
	if !d.deferred {
		d.owners[attr] = node
		return node
	}
	if cur, ok := d.pendClaim[attr]; !ok || node < cur {
		d.pendClaim[attr] = node
	}
	return node
}

// ReplaceOwner implements Directory (root healing).
func (d *SharedDirectory) ReplaceOwner(attr string, node sim.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.deferred {
		d.owners[attr] = node
		return
	}
	if cur, ok := d.pendOwner[attr]; !ok || node < cur {
		d.pendOwner[attr] = node
	}
}

// AddContact implements Directory.
func (d *SharedDirectory) AddContact(attr string, node sim.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.deferred {
		d.addLocked(attr, node)
		return
	}
	pend(d.pendAdd, attr)[node] = true
}

// DropContact implements Directory.
func (d *SharedDirectory) DropContact(attr string, node sim.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.deferred {
		d.dropLocked(attr, node)
		return
	}
	pend(d.pendDrop, attr)[node] = true
}

// pend returns the attr's pending set in m, creating it on first use.
func pend(m map[string]map[sim.NodeID]bool, attr string) map[sim.NodeID]bool {
	set := m[attr]
	if set == nil {
		set = make(map[sim.NodeID]bool)
		m[attr] = set
	}
	return set
}

// Contact implements Directory: a uniform draw over the committed, sorted
// contact list, deterministic in (committed set, caller stream).
func (d *SharedDirectory) Contact(attr string, rng *rand.Rand) (sim.NodeID, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	list := d.contacts[attr]
	if len(list) == 0 {
		return 0, false
	}
	return list[rng.Intn(len(list))], true
}

// Contacts returns a sorted copy of the committed members of a tree
// (test/diagnostic helper).
func (d *SharedDirectory) Contacts(attr string) []sim.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]sim.NodeID{}, d.contacts[attr]...)
}

// addLocked inserts node into the attr's sorted contact list (no-op on
// duplicates). Caller holds d.mu.
func (d *SharedDirectory) addLocked(attr string, node sim.NodeID) {
	list := d.contacts[attr]
	i, found := slices.BinarySearch(list, node)
	if !found {
		d.contacts[attr] = slices.Insert(list, i, node)
	}
}

// dropLocked removes node from the attr's sorted contact list if
// present. Caller holds d.mu.
func (d *SharedDirectory) dropLocked(attr string, node sim.NodeID) {
	list := d.contacts[attr]
	if i, found := slices.BinarySearch(list, node); found {
		d.contacts[attr] = slices.Delete(list, i, i+1)
	}
}

// LiveDirectory wraps a Directory with engine liveness for the Contact
// draw: the paper locates entry points with random walks, which traverse
// live nodes and never return a crashed one. Without it the registry
// accumulates dead members nobody suspects (in leader mode only leaders
// monitor regular members) and generic walks enter trees through corpses.
// Alive must be safe for the goroutine the directory is called from.
type LiveDirectory struct {
	Directory
	Alive func(sim.NodeID) bool
}

// Contact retries the draw a bounded number of times until it finds a
// live entry point, reporting each corpse it draws. Under a step-snapshot
// directory the drop commits at the end of the step, so a dead entry can
// linger for one step's retries — one walk's worth of wasted hops, as in
// the paper's model. A walk that saw only corpses reports no entry point
// at all (the caller's retry machinery fires later), never a node it just
// proved dead.
func (d LiveDirectory) Contact(attr string, rng *rand.Rand) (sim.NodeID, bool) {
	for i := 0; i < 16; i++ {
		id, ok := d.Directory.Contact(attr, rng)
		if !ok {
			return 0, false
		}
		if d.Alive(id) {
			return id, true
		}
		d.Directory.DropContact(attr, id)
	}
	return 0, false
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
