package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/dps-overlay/dps/internal/sim"
)

func TestViewAddRemove(t *testing.T) {
	v := newView(3, 1, 2)
	if v.len() != 3 {
		t.Fatalf("len = %d", v.len())
	}
	if !v.has(1) || v.has(9) {
		t.Error("membership wrong")
	}
	if v.add(1) {
		t.Error("duplicate add reported true")
	}
	if !v.remove(1) || v.remove(1) {
		t.Error("remove semantics wrong")
	}
	ids := v.ids()
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 2 {
		t.Errorf("insertion order lost: %v", ids)
	}
	first, ok := v.first()
	if !ok || first != 3 {
		t.Errorf("first = %d, %v", first, ok)
	}
	empty := newView()
	if _, ok := empty.first(); ok {
		t.Error("empty view reported a first element")
	}
}

func TestViewBoundEvictsRandomly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := newView(1, 2, 3, 4, 5)
	v.bound(3, rng)
	if v.len() != 3 {
		t.Fatalf("len after bound = %d", v.len())
	}
	for _, id := range v.ids() {
		if !v.has(id) {
			t.Errorf("list/set inconsistent for %d", id)
		}
	}
	v.bound(10, rng) // no-op
	if v.len() != 3 {
		t.Error("over-large bound mutated the view")
	}
	v.bound(0, rng) // no-op by contract
	if v.len() != 3 {
		t.Error("zero bound mutated the view")
	}
	// Evictions must be spread: over many trials every element gets evicted
	// sometimes (no deterministic survivor set).
	evicted := map[sim.NodeID]int{}
	for trial := 0; trial < 200; trial++ {
		w := newView(1, 2, 3, 4, 5)
		w.bound(3, rng)
		for id := sim.NodeID(1); id <= 5; id++ {
			if !w.has(id) {
				evicted[id]++
			}
		}
	}
	for id := sim.NodeID(1); id <= 5; id++ {
		if evicted[id] == 0 {
			t.Errorf("element %d never evicted across 200 trials", id)
		}
	}
}

func TestViewSampleExcludes(t *testing.T) {
	v := newView(1, 2, 3, 4, 5, 6)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		s := v.sample(rng, 3, 2, 4)
		if len(s) != 3 {
			t.Fatalf("sample size %d", len(s))
		}
		seen := map[sim.NodeID]bool{}
		for _, id := range s {
			if id == 2 || id == 4 {
				t.Fatalf("excluded id %d sampled", id)
			}
			if seen[id] {
				t.Fatalf("duplicate id %d in sample", id)
			}
			seen[id] = true
		}
	}
	if got := v.sample(rng, 0); got != nil {
		t.Error("k=0 should sample nothing")
	}
	if got := v.sample(rng, 10, 1, 2, 3, 4, 5, 6); len(got) != 0 {
		t.Errorf("fully-excluded sample = %v", got)
	}
}

func TestViewHeadAfter(t *testing.T) {
	v := newView(7, 3, 9, 1)
	got := v.headAfter(2, 3)
	if len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Errorf("headAfter = %v, want [7 9]", got)
	}
	if got := v.headAfter(0); got != nil {
		t.Error("k=0 should return nothing")
	}
}

func TestBranchHelpers(t *testing.T) {
	b := Branch{Nodes: []sim.NodeID{1, 2, 3}}
	if !b.dropNode(2) {
		t.Error("dropNode should report remaining contacts")
	}
	if b.dropNode(1) != true || b.dropNode(3) != false {
		t.Error("dropNode cascade wrong")
	}
	b = Branch{Nodes: []sim.NodeID{1, 2}}
	b.mergeNodes([]sim.NodeID{2, 3, 4, 5}, 3)
	if len(b.Nodes) != 3 || b.Nodes[0] != 1 || b.Nodes[2] != 3 {
		t.Errorf("mergeNodes = %v, want [1 2 3]", b.Nodes)
	}
	c := cloneBranch(b)
	c.Nodes[0] = 99
	if b.Nodes[0] == 99 {
		t.Error("cloneBranch shares backing array")
	}
}

func TestSharedDirectory(t *testing.T) {
	d := NewSharedDirectory()
	if _, ok := d.Owner("a"); ok {
		t.Error("empty directory has an owner")
	}
	if got := d.ClaimOwner("a", 1); got != 1 {
		t.Errorf("ClaimOwner = %d", got)
	}
	if got := d.ClaimOwner("a", 2); got != 1 {
		t.Error("second claim must not displace the owner")
	}
	d.ReplaceOwner("a", 3)
	if got, _ := d.Owner("a"); got != 3 {
		t.Errorf("owner after replace = %d", got)
	}
	d.AddContact("a", 1)
	d.AddContact("a", 2)
	d.AddContact("a", 1) // dup ignored
	if got := d.Contacts("a"); len(got) != 2 {
		t.Errorf("contacts = %v", got)
	}
	rng := rand.New(rand.NewSource(1))
	if _, ok := d.Contact("a", rng); !ok {
		t.Error("contact lookup failed")
	}
	d.DropContact("a", 1)
	d.DropContact("a", 99) // unknown: no-op
	if got := d.Contacts("a"); len(got) != 1 || got[0] != 2 {
		t.Errorf("contacts after drop = %v", got)
	}
	if _, ok := d.Contact("zzz", rng); ok {
		t.Error("contact for unknown attribute")
	}
}

// sendRecorder wraps a node's environment and keeps every message it sends.
type sendRecorder struct {
	sim.Env
	sent []any
}

func (r *sendRecorder) Send(to sim.NodeID, msg any) {
	r.sent = append(r.sent, msg)
	r.Env.Send(to, msg)
}

// A member reconciles its groupview and co-leader view in place when its
// leader's exchanges arrive. The engines hand message values over
// uncopied, so neither what the member sent before, nor an Inspect result
// taken before, nor the leader's message may share storage with those
// views.
func TestLeaderExchangeReconcileDoesNotAlias(t *testing.T) {
	c := newCluster(t, 6, nil)
	for id := sim.NodeID(1); id <= 6; id++ {
		c.subscribe(id, "a>2")
	}
	c.settle(120)
	var member *Node
	var m *membership
	for _, node := range c.nodes {
		if g := node.group(node.Memberships()[0]); g.leader != node.ID() && g.leader != 0 {
			member, m = node, g
			break
		}
	}
	if member == nil {
		t.Fatal("no settled non-leader member")
	}
	leader := m.leader
	var o []sim.NodeID // the other four nodes
	for id := sim.NodeID(1); id <= 6; id++ {
		if id != leader && id != member.ID() {
			o = append(o, id)
		}
	}
	rec := &sendRecorder{Env: member.st.env}
	member.st.env = rec

	encode := func(msg any) string {
		b, err := AppendMessage(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	exchange := func(members, coLead []sim.NodeID) viewExchange {
		return viewExchange{AF: m.af, Members: members, Leader: leader, CoLead: coLead}
	}
	// The first exchange rebuilds the views; the member's reply and a
	// join it answers carry its groupview and co-leader list.
	first := exchange([]sim.NodeID{leader, o[0], o[1], member.ID(), o[2]}, []sim.NodeID{o[0], o[1]})
	member.OnMessage(leader, first)
	member.mem.acceptMember(m, 77, m.af)
	var sent []string
	var reply, accept bool
	for _, msg := range rec.sent {
		_, isExchange := msg.(viewExchange)
		_, isAccept := msg.(joinAccept)
		reply, accept = reply || isExchange, accept || isAccept
		sent = append(sent, encode(msg))
	}
	if !reply || !accept {
		t.Fatalf("want a viewExchange reply and a joinAccept among %d sent messages", len(sent))
	}
	before := member.Inspect()[m.af.Key()]
	snapshot := fmt.Sprint(before)
	firstBytes := encode(first)

	// Two more exchanges rewrite both views in place.
	member.OnMessage(leader, exchange([]sim.NodeID{o[3], leader, o[2]}, []sim.NodeID{o[3]}))
	second := exchange([]sim.NodeID{o[2], o[3], leader, o[0]}, []sim.NodeID{o[2], o[3]})
	member.OnMessage(leader, second)

	got := member.Inspect()[m.af.Key()]
	if want := []sim.NodeID{member.ID(), leader, o[2], o[3], o[0]}; !slices.Equal(got.Members, want) {
		t.Fatalf("groupview = %v, want %v", got.Members, want)
	}
	if want := []sim.NodeID{o[2], o[3]}; !slices.Equal(got.CoLeaders, want) {
		t.Fatalf("co-leaders = %v, want %v", got.CoLeaders, want)
	}
	for i, msg := range rec.sent[:len(sent)] {
		if encode(msg) != sent[i] {
			t.Errorf("sent %T changed after later exchanges", msg)
		}
	}
	if fmt.Sprint(before) != snapshot {
		t.Errorf("earlier Inspect result changed: %s, now %v", snapshot, before)
	}
	if encode(first) != firstBytes {
		t.Error("handling the leader's exchange changed the message")
	}
	second.Members[0], second.CoLead[0] = 99, 99
	if got := member.Inspect()[m.af.Key()]; slices.Contains(got.Members, 99) || slices.Contains(got.CoLeaders, 99) {
		t.Error("the member's views share storage with the leader's message")
	}
}
