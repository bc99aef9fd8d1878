package core

import (
	"math/rand"
	"slices"

	"github.com/dps-overlay/dps/internal/sim"
)

// view is an insertion-ordered set of node ids — the representation of the
// paper's groupview/predview/succview lists ("if there are F nodes in the
// list and a new node is inserted, a node is removed from the bottom").
// Membership tests binary-search index, a sorted copy of list, instead of
// a map: a settled overlay keeps thousands of small views per process, and
// two flat slices are a fraction of a map's footprint and allocations.
type view struct {
	list  []sim.NodeID // insertion order
	index []sim.NodeID // the ids of list, ascending
}

func newView(ids ...sim.NodeID) *view {
	v := &view{}
	for _, id := range ids {
		v.add(id)
	}
	return v
}

// add appends id if absent and reports whether it was inserted.
func (v *view) add(id sim.NodeID) bool {
	i, ok := slices.BinarySearch(v.index, id)
	if ok {
		return false
	}
	v.index = slices.Insert(v.index, i, id)
	v.list = append(v.list, id)
	return true
}

// remove deletes id and reports whether it was present.
func (v *view) remove(id sim.NodeID) bool {
	i, ok := slices.BinarySearch(v.index, id)
	if !ok {
		return false
	}
	v.index = slices.Delete(v.index, i, i+1)
	i = slices.Index(v.list, id)
	v.list = slices.Delete(v.list, i, i+1)
	return true
}

func (v *view) has(id sim.NodeID) bool {
	_, ok := slices.BinarySearch(v.index, id)
	return ok
}

func (v *view) len() int { return len(v.list) }

// ids returns a copy of the view in insertion order.
func (v *view) ids() []sim.NodeID {
	out := make([]sim.NodeID, len(v.list))
	copy(out, v.list)
	return out
}

// first returns the oldest entry, or 0/false when empty.
func (v *view) first() (sim.NodeID, bool) {
	if len(v.list) == 0 {
		return 0, false
	}
	return v.list[0], true
}

// bound trims the view to max entries by evicting uniformly random ones.
// The paper removes "from the bottom of the list" while continuous view
// gossip rotates list positions; with set-semantics views (re-adding a
// known member is a no-op) any deterministic end of the list ossifies into
// the same members at every node, leaving the rest unreachable by gossip.
// Random eviction keeps the union of partial views covering the group.
func (v *view) bound(max int, rng *rand.Rand) {
	if max <= 0 || len(v.list) <= max {
		return
	}
	for len(v.list) > max {
		// Swap the victim to the end, so removing it moves the last
		// entry into its place.
		i, last := rng.Intn(len(v.list)), len(v.list)-1
		v.list[i], v.list[last] = v.list[last], v.list[i]
		v.remove(v.list[last])
	}
}

// sample returns up to k distinct entries drawn uniformly, excluding the
// given ids. Exclusion lists are tiny (self plus at most one peer), so a
// linear scan beats building a set. The returned slice is freshly
// allocated and may be retained by the caller.
func (v *view) sample(rng *rand.Rand, k int, exclude ...sim.NodeID) []sim.NodeID {
	if k <= 0 {
		return nil
	}
	pool := make([]sim.NodeID, 0, len(v.list))
	for _, id := range v.list {
		if !has(exclude, id) {
			pool = append(pool, id)
		}
	}
	if len(pool) <= k {
		return pool
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:k]
}

// headAfter returns up to k of the oldest entries excluding the given ids —
// the co-leader selection rule ("the first Kc nodes that joined the group
// directly after the leader").
func (v *view) headAfter(k int, exclude ...sim.NodeID) []sim.NodeID {
	if k <= 0 {
		return nil
	}
	out := make([]sim.NodeID, 0, k)
	for _, id := range v.list {
		if has(exclude, id) {
			continue
		}
		out = append(out, id)
		if len(out) == k {
			break
		}
	}
	return out
}

// reset empties the view in place for reuse as a scratch set, keeping the
// allocated capacity.
func (v *view) reset() {
	v.list = v.list[:0]
	v.index = v.index[:0]
}

// refill makes the view hold head and then tail, each id at its first
// occurrence — what adding them one by one to an empty view gives — in the
// view's own storage. When the view already holds exactly that sequence
// (the steady state of a leader's groupview refresh) refill writes
// nothing. The view never aliases head or tail.
func (v *view) refill(head, tail []sim.NodeID) {
	i := len(head)
	same := i <= len(v.list) && slices.Equal(v.list[:i], head)
	for _, id := range tail {
		if same && !has(head, id) {
			same = i < len(v.list) && v.list[i] == id
			i++
		}
	}
	if same && i == len(v.list) {
		return
	}
	v.reset()
	for _, id := range head {
		v.add(id)
	}
	for _, id := range tail {
		v.add(id)
	}
}

// addHeadAfter adds up to k of src's oldest entries to v, skipping
// exclude — the allocation-free form of headAfter used when building the
// heartbeat scratch set.
func (v *view) addHeadAfter(src *view, k int, exclude sim.NodeID) {
	if k <= 0 {
		return
	}
	taken := 0
	for _, id := range src.list {
		if id == exclude {
			continue
		}
		v.add(id)
		taken++
		if taken == k {
			return
		}
	}
}

// cloneBranch copies a branch (views cross node boundaries by value).
func cloneBranch(b Branch) Branch {
	nodes := make([]sim.NodeID, len(b.Nodes))
	copy(nodes, b.Nodes)
	return Branch{AF: b.AF, Nodes: nodes}
}

// first returns the branch's primary contact, or 0/false when empty.
func (b Branch) first() (sim.NodeID, bool) {
	if len(b.Nodes) == 0 {
		return 0, false
	}
	return b.Nodes[0], true
}

// dropNode removes id from a branch's contact list in place and reports
// whether the branch still has contacts.
func (b *Branch) dropNode(id sim.NodeID) bool {
	for i, x := range b.Nodes {
		if x == id {
			b.Nodes = append(b.Nodes[:i], b.Nodes[i+1:]...)
			break
		}
	}
	return len(b.Nodes) > 0
}

// mergeNodes appends unseen contacts, keeping at most k. Appending stops
// once k are held, so each scan of the contact list is at most k long.
func (b *Branch) mergeNodes(ids []sim.NodeID, k int) {
	for _, id := range ids {
		if k > 0 && len(b.Nodes) >= k {
			break
		}
		if !has(b.Nodes, id) {
			b.Nodes = append(b.Nodes, id)
		}
	}
	if k > 0 && len(b.Nodes) > k {
		b.Nodes = b.Nodes[:k]
	}
}
