package core

import (
	"fmt"
	"testing"

	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
)

// Micro-benchmarks of the event hot path, for tracking the steady-state
// allocation behaviour of routing (`go test -bench=. -benchmem ./internal/core`).

// buildBenchOverlay assembles a settled overlay: n nodes, a spread of
// integer-range and string subscriptions over a few attributes.
func buildBenchOverlay(b *testing.B, n int) (*sim.Engine, []*Node) {
	b.Helper()
	dir := NewSharedDirectory()
	eng := sim.NewEngine(sim.Config{Seed: 42})
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		cfg := DefaultConfig()
		cfg.Directory = dir
		node, err := NewNode(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Add(sim.NodeID(i+1), node); err != nil {
			b.Fatal(err)
		}
		nodes[i] = node
	}
	subs := []string{
		"a>2", "a>2 && a<20", "a>10", "a<5",
		"b=x*", "a>2 && b=x*", "c>0", "c>0 && c<100",
	}
	for i, node := range nodes {
		sub, err := filter.ParseSubscription(subs[i%len(subs)])
		if err != nil {
			b.Fatal(err)
		}
		if err := node.Subscribe(sub); err != nil {
			b.Fatal(err)
		}
	}
	eng.Run(200)
	return eng, nodes
}

// BenchmarkRouteEvent measures one event's full protocol dispatch — tree
// descent, group diffusion, local matching — through a settled 64-node
// overlay.
func BenchmarkRouteEvent(b *testing.B) {
	eng, nodes := buildBenchOverlay(b, 64)
	ev, err := filter.ParseEvent("a=12, b=xy, c=50")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := nodes[i%len(nodes)].Publish(EventID(i+1), ev); err != nil {
			b.Fatal(err)
		}
		eng.Run(2) // drain the event through the overlay
	}
}

// BenchmarkNotifyLocal measures the local delivery decision: one event
// against a node holding many subscriptions, hitting the per-attribute
// delivery index instead of a full group × subscription scan.
func BenchmarkNotifyLocal(b *testing.B) {
	dir := NewSharedDirectory()
	eng := sim.NewEngine(sim.Config{Seed: 7})
	cfg := DefaultConfig()
	cfg.Directory = dir
	node, err := NewNode(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Add(1, node); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		sub, errS := filter.ParseSubscription(fmt.Sprintf("attr%d>%d && attr%d<%d", i, i, i, 100+i))
		if errS != nil {
			b.Fatal(errS)
		}
		if err := node.Subscribe(sub); err != nil {
			b.Fatal(err)
		}
	}
	eng.Run(50)
	delivered := 0
	node.OnDeliverHook(func(EventID, filter.Event) { delivered++ })
	ev, err := filter.ParseEvent("attr31=50, other=3")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node.dis.notifyLocal(EventID(i+1), ev)
		delete(node.dis.seen, EventID(i+1)) // keep the dedup map flat across b.N
	}
	b.StopTimer()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d events", delivered, b.N)
	}
}

// BenchmarkViewExchange measures the settled leader-mode upkeep step: a
// member handles its leader's unchanged 32-member groupview, which the
// member reconciles against its own in place.
func BenchmarkViewExchange(b *testing.B) {
	dir := NewSharedDirectory()
	eng := sim.NewEngine(sim.Config{Seed: 42})
	sub, err := filter.ParseSubscription("a>2")
	if err != nil {
		b.Fatal(err)
	}
	nodes := make([]*Node, 32)
	for i := range nodes {
		cfg := DefaultConfig()
		cfg.Directory = dir
		if nodes[i], err = NewNode(cfg); err != nil {
			b.Fatal(err)
		}
		if err := eng.Add(sim.NodeID(i+1), nodes[i]); err != nil {
			b.Fatal(err)
		}
		if err := nodes[i].Subscribe(sub); err != nil {
			b.Fatal(err)
		}
	}
	eng.Run(200)
	key := nodes[0].Memberships()[0]
	var leader, member *Node
	for _, node := range nodes {
		if node.group(key).leader == node.ID() {
			leader = node
		} else if member == nil {
			member = node
		}
	}
	if leader == nil || member == nil {
		b.Fatal("no settled leader and member")
	}
	info := leader.Inspect()[key]
	if len(info.Members) != len(nodes) {
		b.Fatalf("leader's groupview holds %d of %d members", len(info.Members), len(nodes))
	}
	var msg any = viewExchange{ // boxed once, as an engine delivers it
		AF:      leader.group(key).af,
		Members: info.Members,
		Parent:  cloneBranch(leader.group(key).parent),
		Leader:  leader.ID(),
		CoLead:  info.CoLeaders,
		Reply:   true,
	}
	member.OnMessage(leader.ID(), msg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		member.OnMessage(leader.ID(), msg)
	}
}
