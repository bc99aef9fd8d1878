package core

import (
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/semtree"
	"github.com/dps-overlay/dps/internal/sim"
	"github.com/dps-overlay/dps/internal/workload"
)

// Property tests (testing/quick) on the core data structures and on the
// overlay's end-to-end invariants.

// mapView is the reference model for view: the map-plus-list
// implementation views had before the sorted index replaced the map.
type mapView struct {
	list []sim.NodeID
	set  map[sim.NodeID]bool
}

func (v *mapView) add(id sim.NodeID) bool {
	if v.set[id] {
		return false
	}
	v.set[id] = true
	v.list = append(v.list, id)
	return true
}

func (v *mapView) remove(id sim.NodeID) bool {
	if !v.set[id] {
		return false
	}
	delete(v.set, id)
	for i, x := range v.list {
		if x == id {
			v.list = append(v.list[:i], v.list[i+1:]...)
			break
		}
	}
	return true
}

func (v *mapView) bound(max int, rng *rand.Rand) {
	if max <= 0 || len(v.list) <= max {
		return
	}
	for len(v.list) > max {
		i := rng.Intn(len(v.list))
		delete(v.set, v.list[i])
		v.list[i] = v.list[len(v.list)-1]
		v.list = v.list[:len(v.list)-1]
	}
}

func (v *mapView) reset() {
	clear(v.set)
	v.list = v.list[:0]
}

// Views must behave exactly like the map-based reference under arbitrary
// operation sequences: the same add/remove answers, and after every op
// the same list (so the same bound survivors for the same rng draws), the
// same has answers over the whole id range, and an index that is the
// sorted list.
func TestViewSetInvariantProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vr := rand.New(rand.NewSource(seed)) // view's bound draws
		mr := rand.New(rand.NewSource(seed)) // model's bound draws
		v := newView()
		m := &mapView{set: map[sim.NodeID]bool{}}
		for op := 0; op < 60; op++ {
			id := sim.NodeID(r.Intn(12))
			switch r.Intn(6) {
			case 0, 1:
				if v.add(id) != m.add(id) {
					t.Logf("add(%d) answers differ", id)
					return false
				}
			case 2:
				if v.remove(id) != m.remove(id) {
					t.Logf("remove(%d) answers differ", id)
					return false
				}
			case 3:
				max := r.Intn(7)
				v.bound(max, vr)
				m.bound(max, mr)
			case 4:
				if r.Intn(4) == 0 {
					v.reset()
					m.reset()
				}
			default:
				// refill equals reset plus adds, whether or not the
				// sequence matches what the view holds.
				head := []sim.NodeID{id}
				if r.Intn(2) == 0 {
					head = append(head, id+12)
				}
				tail := append([]sim.NodeID(nil), m.list[r.Intn(len(m.list)+1):]...)
				if r.Intn(2) == 0 {
					for k := r.Intn(5); k > 0; k-- {
						tail = append(tail, sim.NodeID(r.Intn(14)))
					}
				}
				v.refill(head, tail)
				m.reset()
				for _, x := range append(head, tail...) {
					m.add(x)
				}
			}
			if !slices.Equal(v.list, m.list) {
				t.Logf("list %v, model %v", v.list, m.list)
				return false
			}
			want := slices.Clone(m.list)
			slices.Sort(want)
			if !slices.Equal(v.index, want) {
				t.Logf("index %v is not the sorted list %v", v.index, want)
				return false
			}
			for x := sim.NodeID(0); x < 26; x++ {
				if v.has(x) != m.set[x] {
					t.Logf("has(%d) = %v, model %v", x, v.has(x), m.set[x])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// tableKey draws a key from the 40 strings of at most three letters over
// "ab:", so prefixes and the empty key both occur.
func tableKey(r *rand.Rand) string {
	b := make([]byte, r.Intn(4))
	for i := range b {
		b[i] = "ab:"[r.Intn(3)]
	}
	return string(b)
}

// Tables must behave exactly like a map whose keys are sorted on demand,
// under arbitrary put/del/get/deleteIf sequences: the same get and del
// answers, deleteIf asked in key order, and after every op keys that are
// the sorted map keys with each value paired to its key.
func TestTableMatchesSortedMapProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var tb table[int]
		ref := map[string]int{}
		for op := 0; op < 80; op++ {
			k := tableKey(r)
			switch r.Intn(6) {
			case 0, 1, 2:
				v := r.Intn(1000)
				tb.put(k, v)
				ref[k] = v
			case 3:
				_, had := ref[k]
				delete(ref, k)
				if tb.del(k) != had {
					t.Logf("del(%q) answers %v, model %v", k, !had, had)
					return false
				}
			case 4:
				v, ok := tb.get(k)
				want, wok := ref[k]
				if v != want || ok != wok {
					t.Logf("get(%q) = %d, %v; model %d, %v", k, v, ok, want, wok)
					return false
				}
			default:
				mod := 2 + r.Intn(3)
				want := slices.Clone(tb.vals)
				var asked []int
				tb.deleteIf(func(v int) bool {
					asked = append(asked, v)
					return v%mod == 0
				})
				if !slices.Equal(asked, want) {
					t.Logf("deleteIf asked %v, want key order %v", asked, want)
					return false
				}
				for rk, v := range ref {
					if v%mod == 0 {
						delete(ref, rk)
					}
				}
			}
			keys := make([]string, 0, len(ref))
			for rk := range ref {
				keys = append(keys, rk)
			}
			sort.Strings(keys)
			if !slices.Equal(tb.keys, keys) || tb.len() != len(keys) {
				t.Logf("keys %q, model %q", tb.keys, keys)
				return false
			}
			if len(tb.vals) != len(tb.keys) {
				t.Logf("%d values for %d keys", len(tb.vals), len(tb.keys))
				return false
			}
			for i, rk := range keys {
				if tb.vals[i] != ref[rk] {
					t.Logf("value under %q is %d, model %d", rk, tb.vals[i], ref[rk])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestMemoryMatchesMapModelProperty runs random add/mark/within/expire/
// delete sequences, starting from a nil memory, against a plain map with
// the expiry rule written out: a mark made at step at is forgotten once
// now-at > dedupTTL. The clock jumps by exactly dedupTTL and its
// neighbours often, so the boundary step is exercised.
func TestMemoryMatchesMapModelProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	jumps := []int64{0, 1, 2, 50, dedupTTL - 1, dedupTTL, dedupTTL + 1}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var mem memory[int]
		ref := map[int]int64{}
		var now int64
		for op := 0; op < 80; op++ {
			now += jumps[r.Intn(len(jumps))]
			k := r.Intn(6)
			at, had := ref[k]
			switch r.Intn(6) {
			case 0, 1:
				if !had {
					ref[k] = now
				}
				if got := mem.add(k, now); got != !had {
					t.Logf("add(%d) at %d = %v; model %v", k, now, got, !had)
					return false
				}
			case 2:
				ref[k] = now
				mem.mark(k, now)
			case 3:
				want := had && now-at <= dedupTTL
				if had && !want {
					delete(ref, k)
				}
				if got := mem.within(k, now); got != want {
					t.Logf("within(%d) at %d = %v; model %v", k, now, got, want)
					return false
				}
			case 4:
				for rk, rat := range ref {
					if now-rat > dedupTTL {
						delete(ref, rk)
					}
				}
				mem.expire(now)
			default:
				delete(ref, k)
				delete(mem, k)
			}
			if !maps.Equal(mem, ref) {
				t.Logf("memory %v, model %v at step %d", mem, ref, now)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Branch mergeNodes must preserve existing order, never duplicate, and
// respect the cap.
func TestBranchMergeProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := Branch{}
		for i := 0; i < 3+r.Intn(3); i++ {
			b.Nodes = append(b.Nodes, sim.NodeID(r.Intn(8)))
		}
		// Dedupe the seed list the way real code builds branches.
		b = cloneBranch(b)
		dedup := Branch{}
		dedup.mergeNodes(b.Nodes, 0)
		b = dedup
		prefix := append([]sim.NodeID(nil), b.Nodes...)
		extra := make([]sim.NodeID, r.Intn(6))
		for i := range extra {
			extra[i] = sim.NodeID(r.Intn(12))
		}
		k := 1 + r.Intn(6)
		b.mergeNodes(extra, k)
		if len(b.Nodes) > k && k > 0 {
			t.Logf("cap violated: %v with k=%d", b.Nodes, k)
			return false
		}
		seen := map[sim.NodeID]bool{}
		for _, x := range b.Nodes {
			if seen[x] {
				t.Logf("duplicate %d in %v", x, b.Nodes)
				return false
			}
			seen[x] = true
		}
		// Existing entries keep their order as a prefix (up to the cap).
		for i := 0; i < len(prefix) && i < len(b.Nodes); i++ {
			if b.Nodes[i] != prefix[i] {
				t.Logf("prefix order broken: %v vs %v", b.Nodes, prefix)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// The overlay built from a random generated workload must agree with the
// oracle forest on group membership and must deliver every matching pair,
// for all four paper configurations.
func TestOverlayMatchesOracleOnGeneratedWorkload(t *testing.T) {
	for _, mode := range modes() {
		t.Run(mode.name, func(t *testing.T) {
			c := newCluster(t, 40, func(cfg *Config) {
				cfg.Traversal = mode.trav
				cfg.Comm = mode.comm
				cfg.Fanout = 3
				cfg.CrossFanout = 2
			})
			oracle := semtree.New()
			gen := workload.MustGenerator(workload.Workload2(), 99)
			for id := sim.NodeID(1); id <= 40; id++ {
				sub := gen.Subscription()
				if err := c.nodes[id].Subscribe(sub); err != nil {
					t.Fatal(err)
				}
				if _, err := oracle.Subscribe(semtree.MemberID(id), sub); err != nil {
					t.Fatal(err)
				}
				c.settle(6) // sequential joins: structures must coincide
			}
			c.settle(60)
			// Membership equivalence.
			got := c.groupsOf()
			want := 0
			for _, attr := range oracle.Attrs() {
				oracle.Tree(attr).Walk(func(g *semtree.Group) bool {
					if g.Filter.IsUniversal() {
						return true
					}
					want++
					set := got[g.Filter.Key()]
					if len(set) != g.Size() {
						t.Errorf("group %v: overlay %d members, oracle %d",
							g.Filter, len(set), g.Size())
					}
					return true
				})
			}
			if len(got) != want {
				t.Errorf("overlay has %d groups, oracle %d", len(got), want)
			}
			// Delivery completeness on random events.
			for i := 0; i < 15; i++ {
				ev := gen.Event()
				c.nextEvent++
				id := c.nextEvent
				if err := c.nodes[1].Publish(id, ev); err != nil {
					t.Fatal(err)
				}
				c.settle(30)
				for m := range oracle.MatchingMembers(ev) {
					if !c.delivered[id][sim.NodeID(m)] {
						t.Errorf("event %v: matching member %d not delivered", ev, m)
					}
				}
			}
		})
	}
}

// Unsubscribing a leader must hand the group over without losing events.
func TestLeaderUnsubscribeHandsOver(t *testing.T) {
	c := newCluster(t, 5, nil)
	for id := sim.NodeID(1); id <= 5; id++ {
		c.subscribe(id, "a>2 && a<100")
		c.settle(6)
	}
	c.settle(30)
	key := filter.MustAttrFilter("a", filter.Gt("a", 2), filter.Lt("a", 100)).Key()
	var leader sim.NodeID
	for id, node := range c.nodes {
		if m := node.group(key); m != nil && m.leader == id {
			leader = id
		}
	}
	if leader == 0 {
		t.Fatal("no leader")
	}
	sub, _ := filter.ParseSubscription("a>2 && a<100")
	if err := c.nodes[leader].Unsubscribe(sub); err != nil {
		t.Fatal(err)
	}
	c.settle(60)
	var publisher sim.NodeID = 1
	if leader == 1 {
		publisher = 2
	}
	evID := c.publish(publisher, "a=50")
	c.settle(30)
	for id := sim.NodeID(1); id <= 5; id++ {
		if id == leader {
			if c.delivered[evID][id] {
				t.Error("unsubscribed leader still delivered")
			}
			continue
		}
		if !c.delivered[evID][id] {
			t.Errorf("member %d missed the event after leader handover", id)
		}
	}
}

// Epidemic unsubscription spreads through gossip: the departed member must
// stop receiving.
func TestEpidemicUnsubscribe(t *testing.T) {
	c := newCluster(t, 6, func(cfg *Config) {
		cfg.Comm = Epidemic
		cfg.Fanout = 3
		cfg.SubFanout = 3
	})
	for id := sim.NodeID(1); id <= 6; id++ {
		c.subscribe(id, "a>2")
		c.settle(6)
	}
	c.settle(60)
	sub, _ := filter.ParseSubscription("a>2")
	if err := c.nodes[4].Unsubscribe(sub); err != nil {
		t.Fatal(err)
	}
	c.settle(60)
	evID := c.publish(1, "a=10")
	c.settle(40)
	if c.delivered[evID][4] {
		t.Error("departed epidemic member still delivered")
	}
	delivered := 0
	for id := sim.NodeID(1); id <= 6; id++ {
		if id != 4 && c.delivered[evID][id] {
			delivered++
		}
	}
	if delivered < 4 {
		t.Errorf("only %d/5 remaining members delivered", delivered)
	}
}
