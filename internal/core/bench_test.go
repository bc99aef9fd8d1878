package core

import (
	"fmt"
	"testing"

	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
)

// Micro-benchmarks of the event hot path, for tracking the steady-state
// allocation behaviour of routing (`go test -bench=. -benchmem ./internal/core`).
// RouteEvent, ViewExchange and SettledTick also pin their allocs/op in
// plain `go test` (TestRouteEventAllocs, TestViewExchangeAllocs,
// TestSettledTickAllocs).

// buildBenchOverlay assembles a settled overlay: n nodes, a spread of
// integer-range and string subscriptions over a few attributes.
func buildBenchOverlay(tb testing.TB, n int) (*sim.Engine, []*Node) {
	tb.Helper()
	dir := NewSharedDirectory()
	eng := sim.NewEngine(sim.Config{Seed: 42})
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		cfg := DefaultConfig()
		cfg.Directory = dir
		node, err := NewNode(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		if err := eng.Add(sim.NodeID(i+1), node); err != nil {
			tb.Fatal(err)
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
			tb.Fatal(err)
		}
		if err := node.Subscribe(sub); err != nil {
			tb.Fatal(err)
		}
	}
	eng.Run(200)
	return eng, nodes
}

// routeEventOp builds a settled 64-node overlay and returns one event's
// full protocol dispatch through it — tree descent, group diffusion,
// local matching — as the i-th op.
func routeEventOp(tb testing.TB) func(i int) error {
	eng, nodes := buildBenchOverlay(tb, 64)
	ev, err := filter.ParseEvent("a=12, b=xy, c=50")
	if err != nil {
		tb.Fatal(err)
	}
	return func(i int) error {
		if err := nodes[i%len(nodes)].Publish(EventID(i+1), ev); err != nil {
			return err
		}
		eng.Run(2) // drain the event through the overlay
		return nil
	}
}

// BenchmarkRouteEvent measures routeEventOp.
func BenchmarkRouteEvent(b *testing.B) {
	op := routeEventOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(i); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRouteEventAllocs pins BenchmarkRouteEvent's allocs/op.
func TestRouteEventAllocs(t *testing.T) {
	op := routeEventOp(t)
	i := 0
	got := testing.AllocsPerRun(2000, func() {
		if err := op(i); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if got != 47 {
		t.Errorf("RouteEvent allocs/op = %v, pinned at 47", got)
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
		delete(node.dis.seen, EventID(i+1)) // keep the seen memory flat across b.N
	}
	b.StopTimer()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d events", delivered, b.N)
	}
}

// settledGroup builds 32 nodes that all subscribe "a>2" and runs the
// engine until the group has settled, returning the engine, the nodes and
// the group's key.
func settledGroup(tb testing.TB) (*sim.Engine, []*Node, string) {
	tb.Helper()
	dir := NewSharedDirectory()
	eng := sim.NewEngine(sim.Config{Seed: 42})
	sub, err := filter.ParseSubscription("a>2")
	if err != nil {
		tb.Fatal(err)
	}
	nodes := make([]*Node, 32)
	for i := range nodes {
		cfg := DefaultConfig()
		cfg.Directory = dir
		if nodes[i], err = NewNode(cfg); err != nil {
			tb.Fatal(err)
		}
		if err := eng.Add(sim.NodeID(i+1), nodes[i]); err != nil {
			tb.Fatal(err)
		}
		if err := nodes[i].Subscribe(sub); err != nil {
			tb.Fatal(err)
		}
	}
	eng.Run(200)
	return eng, nodes, nodes[0].Memberships()[0]
}

// viewExchangeOp returns the settled leader-mode upkeep step as an op: a
// member handles its leader's unchanged 32-member groupview, which the
// member reconciles against its own in place.
func viewExchangeOp(tb testing.TB) func() {
	_, nodes, key := settledGroup(tb)
	var leader, member *Node
	for _, node := range nodes {
		if node.group(key).leader == node.ID() {
			leader = node
		} else if member == nil {
			member = node
		}
	}
	if leader == nil || member == nil {
		tb.Fatal("no settled leader and member")
	}
	info := leader.Inspect()[key]
	if len(info.Members) != len(nodes) {
		tb.Fatalf("leader's groupview holds %d of %d members", len(info.Members), len(nodes))
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
	return func() { member.OnMessage(leader.ID(), msg) }
}

// BenchmarkViewExchange measures viewExchangeOp.
func BenchmarkViewExchange(b *testing.B) {
	op := viewExchangeOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestViewExchangeAllocs pins the settled view exchange allocation-free.
func TestViewExchangeAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(2000, viewExchangeOp(t)); got != 0 {
		t.Errorf("ViewExchange allocs/op = %v, pinned at 0", got)
	}
}

// BenchmarkSettledTick measures the settled group's whole upkeep: one op
// runs the engine for one viewExchangePeriod, so every node ticks through
// its heartbeat and anti-entropy rounds once and every resulting message
// is delivered.
func BenchmarkSettledTick(b *testing.B) {
	eng, nodes, _ := settledGroup(b)
	eng.Run(viewExchangePeriod)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Run(viewExchangePeriod)
	}
	b.StopTimer()
	if eng.AliveCount() != len(nodes) {
		b.Fatalf("%d of %d nodes alive", eng.AliveCount(), len(nodes))
	}
}

// TestSettledTickAllocs pins BenchmarkSettledTick's allocs/op.
func TestSettledTickAllocs(t *testing.T) {
	eng, _, _ := settledGroup(t)
	eng.Run(viewExchangePeriod)
	got := testing.AllocsPerRun(2000, func() { eng.Run(viewExchangePeriod) })
	if got != 169 {
		t.Errorf("SettledTick allocs/op = %v, pinned at 169", got)
	}
}
