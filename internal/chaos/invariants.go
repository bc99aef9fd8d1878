package chaos

import (
	"fmt"
	"sort"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
)

// The legal-configuration invariants. A configuration — the union of all
// live nodes' structural snapshots — is *legal* when every semantic tree
// satisfies the §4.3 repair goals:
//
//   - InvAcyclic: the parent (predview) edges of each attribute tree form
//     no cycle, over the union of every live instance's asserted parent.
//   - InvConnected: every group chains up to the live tree root via
//     parent edges, the root is owned by a live node holding the root
//     group, and every group is reachable root-downward via succview
//     branch edges (the dissemination paths of §4.1).
//   - InvContainment: semantic containment holds along every parent→child
//     edge, in both directions the protocol stores them (a group's
//     predview filter includes the group's own; a group's filter includes
//     every branch filter) — the defining property of the semantic tree
//     (§3).
//   - InvViewSymmetry: group views only reference peers that actually
//     hold the group: every live node named in a groupview (member,
//     co-leader or leader) is itself a holder of that group, and in
//     leader mode every active group has a live leader.
//   - InvNoOrphans: every subscription sits on a settled (non-joining)
//     membership that is either the root or keeps at least one live
//     predview contact — no subscriber is silently cut off from its tree.
//
// Transient violations during repair are expected and recorded; the
// self-* claim under test is that after a fault-free convergence window
// every invariant holds again.
const (
	InvAcyclic      = "acyclic"
	InvConnected    = "connected"
	InvContainment  = "containment"
	InvViewSymmetry = "view-symmetry"
	InvNoOrphans    = "no-orphans"
)

// Invariants lists every invariant name the checker evaluates.
func Invariants() []string {
	return []string{InvAcyclic, InvConnected, InvContainment, InvViewSymmetry, InvNoOrphans}
}

// Target is the read-only world surface the checker inspects. All methods
// are called from the runner goroutine (between steps on the cycle
// engine); implementations must not mutate protocol state.
type Target interface {
	// AliveIDs returns the live node ids in ascending order.
	AliveIDs() []sim.NodeID
	// StructuralSnapshot returns deep-copied membership snapshots of one
	// live node.
	StructuralSnapshot(id sim.NodeID) []core.MembershipSnapshot
	// TreeOwner returns the directory's current owner of the attribute's
	// tree.
	TreeOwner(attr string) (sim.NodeID, bool)
}

// Violation is one invariant breach at one check point.
type Violation struct {
	Invariant string     `json:"invariant"`
	Attr      string     `json:"attr,omitempty"`
	Group     string     `json:"group,omitempty"`
	Node      sim.NodeID `json:"node,omitempty"`
	Detail    string     `json:"detail"`
}

// CheckRecord is the outcome of one invariant sweep: the step, the total
// violation count, a per-invariant breakdown, and a bounded sample of the
// concrete violations.
type CheckRecord struct {
	Step         int64          `json:"step"`
	Total        int            `json:"total"`
	ByInvariant  map[string]int `json:"by_invariant,omitempty"`
	Sample       []Violation    `json:"sample,omitempty"`
	LiveNodes    int            `json:"live_nodes"`
	ActiveGroups int            `json:"active_groups"`
}

// Repair is one closed fault→legal interval: the overlay was perturbed at
// FaultStep and first observed fully legal again at CleanStep.
type Repair struct {
	FaultStep int64 `json:"fault_step"`
	CleanStep int64 `json:"clean_step"`
	Steps     int64 `json:"steps"` // CleanStep - FaultStep
	// Kinds labels the fault actions injected at FaultStep (e.g. "crash",
	// "corrupt-dangling-parent"); per-fault TTR breakdowns group by them.
	Kinds []string `json:"kinds,omitempty"`
}

// CheckerOptions parameterise the sweep.
type CheckerOptions struct {
	// LeaderMode enables the leader-specific clauses of InvViewSymmetry
	// (live leader per active group). Set it when the population runs
	// leader-based communication.
	LeaderMode bool
}

// maxSamples bounds the concrete violations kept per check record (the
// totals are always exact).
const maxSamples = 6

// Checker validates the legal-configuration invariants. The runner calls
// Check between steps, once the overlay has formed; sweeps are read-only
// and consume no engine randomness — a checked run's protocol trace is
// bit-identical to an unchecked one.
type Checker struct {
	target Target
	opts   CheckerOptions

	records []CheckRecord
	pending []pendingFault // fault steps not yet followed by a clean sweep
	repairs []Repair
}

// pendingFault is one open fault interval awaiting a clean sweep.
type pendingFault struct {
	step  int64
	kinds []string
}

// NewChecker builds a checker over the target.
func NewChecker(target Target, opts CheckerOptions) *Checker {
	return &Checker{target: target, opts: opts}
}

// MarkFault tells the checker the configuration was perturbed at the
// given step; the next all-clean sweep closes it as a Repair.
func (c *Checker) MarkFault(step int64) { c.MarkFaultKinds(step, nil) }

// MarkFaultKinds is MarkFault with the injected fault labels attached, so
// the closed Repair records which fault family it measures.
func (c *Checker) MarkFaultKinds(step int64, kinds []string) {
	c.pending = append(c.pending, pendingFault{step: step, kinds: kinds})
}

// Records returns every sweep outcome in step order.
func (c *Checker) Records() []CheckRecord { return c.records }

// Repairs returns the closed fault→legal intervals in close order.
func (c *Checker) Repairs() []Repair { return c.repairs }

// Unrepaired returns fault steps never followed by a clean sweep.
func (c *Checker) Unrepaired() []int64 {
	out := make([]int64, 0, len(c.pending))
	for _, p := range c.pending {
		out = append(out, p.step)
	}
	return out
}

// FinalClean reports whether the most recent sweep found zero violations.
func (c *Checker) FinalClean() bool {
	return len(c.records) > 0 && c.records[len(c.records)-1].Total == 0
}

// instance is one live node's slice of one group.
type instance struct {
	node sim.NodeID
	snap core.MembershipSnapshot
}

// Check runs one full invariant sweep at the given step and returns the
// record (also appended to Records).
func (c *Checker) Check(step int64) CheckRecord {
	ids := c.target.AliveIDs()
	live := make(map[sim.NodeID]bool, len(ids))
	for _, id := range ids {
		live[id] = true
	}

	// Snapshot every live node once (snapshots are deep copies; taking
	// them twice would double the sweep's cost).
	type nodeSnaps struct {
		id    sim.NodeID
		snaps []core.MembershipSnapshot
	}
	all := make([]nodeSnaps, 0, len(ids))
	for _, id := range ids {
		all = append(all, nodeSnaps{id: id, snaps: c.target.StructuralSnapshot(id)})
	}

	// Gather the configuration: per-attribute group instances (active
	// memberships only) and the holder relation (any membership, joining
	// included — a join in flight is knowledge of the group).
	byAttr := make(map[string]map[string][]instance)
	holders := make(map[string]map[sim.NodeID]bool)
	// attached marks group keys with at least one active instance whose
	// predview reaches a live contact (or which hosts the root). Upward
	// attachment is a group property: the paper's repair runs through the
	// instances that monitor the edge (the leader and its mirrors), while
	// regular members deliberately keep a passive, possibly stale copy.
	attached := make(map[string]bool)
	activeGroups := 0
	var attrs []string
	for _, ns := range all {
		id := ns.id
		for _, snap := range ns.snaps {
			hs := holders[snap.Key]
			if hs == nil {
				hs = make(map[sim.NodeID]bool)
				holders[snap.Key] = hs
			}
			hs[id] = true
			if snap.Joining {
				continue
			}
			if snap.IsRoot {
				attached[snap.Key] = true
			} else {
				for _, p := range snap.Parent.Nodes {
					if live[p] {
						attached[snap.Key] = true
						break
					}
				}
			}
			attr := snap.AF.Attr()
			groups := byAttr[attr]
			if groups == nil {
				groups = make(map[string][]instance)
				byAttr[attr] = groups
				attrs = append(attrs, attr)
			}
			if len(groups[snap.Key]) == 0 {
				activeGroups++
			}
			groups[snap.Key] = append(groups[snap.Key], instance{node: id, snap: snap})
		}
	}
	sort.Strings(attrs)

	rec := CheckRecord{
		Step:        step,
		ByInvariant: make(map[string]int),
		LiveNodes:   len(ids),
	}
	rec.ActiveGroups = activeGroups
	add := func(v Violation) {
		rec.Total++
		rec.ByInvariant[v.Invariant]++
		if len(rec.Sample) < maxSamples {
			rec.Sample = append(rec.Sample, v)
		}
	}

	for _, attr := range attrs {
		c.checkTree(attr, byAttr[attr], holders, live, add)
	}
	for _, ns := range all {
		c.checkSubscriber(ns.id, ns.snaps, attached, add)
	}

	if len(rec.ByInvariant) == 0 {
		rec.ByInvariant = nil
	}
	c.records = append(c.records, rec)
	if rec.Total == 0 && len(c.pending) > 0 {
		for _, p := range c.pending {
			c.repairs = append(c.repairs, Repair{
				FaultStep: p.step, CleanStep: step, Steps: step - p.step, Kinds: p.kinds})
		}
		c.pending = c.pending[:0]
	}
	return rec
}

// checkTree validates one attribute tree: acyclicity, up- and downward
// connectivity, containment and view symmetry.
func (c *Checker) checkTree(attr string, groups map[string][]instance,
	holders map[string]map[sim.NodeID]bool, live map[sim.NodeID]bool, add func(Violation)) {

	rootKey := filter.UniversalFilter(attr).Key()
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	// Edges, as the union of every live instance's assertion: parents
	// (child key → parent keys) from predviews, children (parent key →
	// child keys) from succview branches.
	parents := make(map[string][]string, len(groups))
	children := make(map[string][]string, len(groups))
	addEdge := func(m map[string][]string, from, to string) {
		for _, x := range m[from] {
			if x == to {
				return
			}
		}
		m[from] = append(m[from], to)
	}

	for _, key := range keys {
		for _, inst := range groups[key] {
			snap := inst.snap
			if !snap.IsRoot && !snap.Parent.AF.IsZero() {
				addEdge(parents, key, snap.Parent.AF.Key())
				// Containment upward: the predecessor's filter includes ours.
				if !snap.Parent.AF.Includes(snap.AF) {
					add(Violation{Invariant: InvContainment, Attr: attr, Group: key, Node: inst.node,
						Detail: fmt.Sprintf("predview filter %s does not include group filter %s",
							snap.Parent.AF, snap.AF)})
				}
			}
			for _, b := range snap.Branches {
				addEdge(children, key, b.AF.Key())
				// Containment downward: our filter includes every branch.
				if !snap.AF.IsUniversal() && !snap.AF.Includes(b.AF) {
					add(Violation{Invariant: InvContainment, Attr: attr, Group: key, Node: inst.node,
						Detail: fmt.Sprintf("group filter %s does not include branch filter %s",
							snap.AF, b.AF)})
				}
				if b.AF.Attr() != attr {
					add(Violation{Invariant: InvContainment, Attr: attr, Group: key, Node: inst.node,
						Detail: fmt.Sprintf("branch filter %s crosses into tree %q", b.AF, b.AF.Attr())})
				}
			}
			c.checkViews(attr, key, inst, holders, live, add)
		}
		if c.opts.LeaderMode {
			c.checkLeadership(attr, key, groups[key], holders, live, add)
		}
	}

	// Acyclicity of the parent graph (union over instances). Colors:
	// 0 unvisited, 1 on stack, 2 done.
	color := make(map[string]uint8, len(parents))
	var dfs func(k string) bool
	dfs = func(k string) bool {
		switch color[k] {
		case 1:
			return true // back edge: cycle
		case 2:
			return false
		}
		color[k] = 1
		for _, p := range parents[k] {
			if dfs(p) {
				return true
			}
		}
		color[k] = 2
		return false
	}
	for _, key := range keys {
		if color[key] == 0 && dfs(key) {
			add(Violation{Invariant: InvAcyclic, Attr: attr, Group: key,
				Detail: "predview edges form a cycle"})
			break // one report per tree; the sweep is periodic
		}
	}

	// Root health: the directory names a live owner that holds the root
	// group actively.
	owner, hasOwner := c.target.TreeOwner(attr)
	switch {
	case !hasOwner:
		add(Violation{Invariant: InvConnected, Attr: attr, Detail: "tree has no directory owner"})
	case !live[owner]:
		add(Violation{Invariant: InvConnected, Attr: attr,
			Detail: fmt.Sprintf("directory owner %d is dead", owner)})
	default:
		ownerHasRoot := false
		for _, inst := range groups[rootKey] {
			if inst.node == owner {
				ownerHasRoot = true
				break
			}
		}
		if !ownerHasRoot {
			add(Violation{Invariant: InvConnected, Attr: attr,
				Detail: fmt.Sprintf("directory owner %d holds no active root group", owner)})
		}
	}

	// Split-brain roots (leader mode): at most one live instance may claim
	// the tree's leadership for itself. Root mirrors legally name the owner
	// as leader, so only *self*-acknowledged claims count; two of them mean
	// two cohorts each believe they host the tree — the split-brain
	// corruption, or a partition's duplicated root before the merge.
	if c.opts.LeaderMode {
		var claimants []sim.NodeID
		for _, inst := range groups[rootKey] {
			if inst.snap.Leader == inst.node {
				claimants = append(claimants, inst.node)
			}
		}
		if len(claimants) > 1 {
			add(Violation{Invariant: InvConnected, Attr: attr,
				Detail: fmt.Sprintf("split-brain: %d root instances each claim tree leadership %v",
					len(claimants), claimants)})
		}
	}

	// Upward connectivity: every group chains to the root key over parent
	// edges. Memoized walk; cycles were reported above, so mark
	// in-progress keys unreachable rather than recursing forever.
	up := make(map[string]int8, len(groups)) // 0 unknown, 1 reaches, -1 fails, 2 visiting
	var reaches func(k string) bool
	reaches = func(k string) bool {
		if k == rootKey {
			return true
		}
		switch up[k] {
		case 1:
			return true
		case -1, 2:
			return false
		}
		up[k] = 2
		ok := false
		for _, p := range parents[k] {
			if reaches(p) {
				ok = true
				break
			}
		}
		if ok {
			up[k] = 1
		} else {
			up[k] = -1
		}
		return ok
	}
	for _, key := range keys {
		if key == rootKey {
			continue
		}
		if !reaches(key) {
			add(Violation{Invariant: InvConnected, Attr: attr, Group: key,
				Detail: "group does not chain up to the tree root"})
		}
	}

	// Downward connectivity: every group is reachable from the root over
	// branch edges — the dissemination paths. Stale branches naming
	// vanished groups are harmless extra edges; what matters is that live
	// groups are covered.
	if len(groups[rootKey]) > 0 {
		down := map[string]bool{rootKey: true}
		queue := []string{rootKey}
		for len(queue) > 0 {
			k := queue[0]
			queue = queue[1:]
			for _, ch := range children[k] {
				if !down[ch] {
					down[ch] = true
					queue = append(queue, ch)
				}
			}
		}
		for _, key := range keys {
			if !down[key] {
				add(Violation{Invariant: InvConnected, Attr: attr, Group: key,
					Detail: "group unreachable from the root via succview branches"})
			}
		}
	}
}

// checkViews validates the view-symmetry clauses for one instance.
func (c *Checker) checkViews(attr, key string, inst instance,
	holders map[string]map[sim.NodeID]bool, live map[sim.NodeID]bool, add func(Violation)) {

	snap := inst.snap
	for _, y := range snap.Members {
		if y != inst.node && live[y] && !holders[key][y] {
			add(Violation{Invariant: InvViewSymmetry, Attr: attr, Group: key, Node: inst.node,
				Detail: fmt.Sprintf("groupview names live node %d which does not hold the group", y)})
		}
	}
	for _, y := range snap.CoLeaders {
		if y != inst.node && live[y] && !holders[key][y] {
			add(Violation{Invariant: InvViewSymmetry, Attr: attr, Group: key, Node: inst.node,
				Detail: fmt.Sprintf("co-leader view names live node %d which does not hold the group", y)})
		}
	}
	if c.opts.LeaderMode {
		switch {
		case snap.Leader == 0:
			add(Violation{Invariant: InvViewSymmetry, Attr: attr, Group: key, Node: inst.node,
				Detail: "active leader-mode group is leaderless"})
		case !live[snap.Leader]:
			add(Violation{Invariant: InvViewSymmetry, Attr: attr, Group: key, Node: inst.node,
				Detail: fmt.Sprintf("group leader %d is dead", snap.Leader)})
		case snap.Leader != inst.node && !holders[key][snap.Leader]:
			add(Violation{Invariant: InvViewSymmetry, Attr: attr, Group: key, Node: inst.node,
				Detail: fmt.Sprintf("group leader %d does not hold the group", snap.Leader)})
		}
	}
}

// checkLeadership validates the group-level leadership clause (leader
// mode): when any instance defers to a live holder as leader, some live
// instance must actually acknowledge leading the group. A group where
// every instance points at another live holder and nobody self-acknowledges
// is a leadership deference chain — each node waits forever for a leader
// that does not believe it leads, a state individual-instance clauses
// (dead leader, non-holder leader) cannot see.
func (c *Checker) checkLeadership(attr, key string, insts []instance,
	holders map[string]map[sim.NodeID]bool, live map[sim.NodeID]bool, add func(Violation)) {

	deferred := false
	selfAck := false
	for _, inst := range insts {
		l := inst.snap.Leader
		if l == inst.node {
			selfAck = true
			break
		}
		if l != 0 && live[l] && holders[key][l] {
			deferred = true
		}
	}
	if deferred && !selfAck {
		add(Violation{Invariant: InvViewSymmetry, Attr: attr, Group: key,
			Detail: "no instance acknowledges leadership (leadership deference chain)"})
	}
}

// checkSubscriber validates InvNoOrphans over one live subscriber: every
// subscription sits on a settled membership whose group is attached —
// some instance of it (the root, or a leader/mirror with a live predview
// contact) still reaches up the tree.
func (c *Checker) checkSubscriber(id sim.NodeID, snaps []core.MembershipSnapshot,
	attached map[string]bool, add func(Violation)) {
	for _, snap := range snaps {
		// Covered subscriptions (leader mode) ride on this membership as
		// their only delivery path, so they count exactly like direct ones.
		total := snap.Subs + snap.CoveredSubs
		if total == 0 {
			continue
		}
		if snap.Joining {
			add(Violation{Invariant: InvNoOrphans, Attr: snap.AF.Attr(), Group: snap.Key, Node: id,
				Detail: fmt.Sprintf("%d subscription(s) parked on a membership still joining", total)})
			continue
		}
		if !attached[snap.Key] {
			add(Violation{Invariant: InvNoOrphans, Attr: snap.AF.Attr(), Group: snap.Key, Node: id,
				Detail: "subscriber group has no live predview contact at any instance"})
		}
	}
}
