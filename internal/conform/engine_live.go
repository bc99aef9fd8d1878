package conform

import (
	"fmt"
	"time"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/livenet"
	"github.com/dps-overlay/dps/internal/sim"
)

// liveEngine runs the population on the goroutine runtime: one goroutine
// per peer, wall-clock ticks, asynchronous channel delivery, the shared
// in-process directory. The hub's fault plane provides the injection
// surface; every protocol interaction from the runner goes through
// Peer.Do so it executes on the peer's own goroutine (core nodes are
// single-goroutine by design).
type liveEngine struct {
	hub   *livenet.Hub
	dir   *core.SharedDirectory
	pop   *population
	rec   *recorder
	tick  time.Duration
	cover bool
	nodes map[sim.NodeID]*core.Node
	peers map[sim.NodeID]*livenet.Peer
}

var _ Engine = (*liveEngine)(nil)

func newLiveEngine(opts Options, pop *population, rec *recorder) *liveEngine {
	return &liveEngine{
		hub:   livenet.NewHub(livenet.Config{TickEvery: opts.TickEvery, Seed: opts.Seed}),
		dir:   core.NewSharedDirectory(),
		pop:   pop,
		rec:   rec,
		tick:  opts.TickEvery,
		cover: opts.Cover,
		nodes: make(map[sim.NodeID]*core.Node),
		peers: make(map[sim.NodeID]*livenet.Peer),
	}
}

func (e *liveEngine) Name() string { return EngineLive }

// Fault surface: the hub implements it natively.
func (e *liveEngine) Now() int64                               { return e.hub.Now() }
func (e *liveEngine) Kill(id sim.NodeID)                       { e.hub.Kill(id) }
func (e *liveEngine) CutLink(a, b sim.NodeID)                  { e.hub.CutLink(a, b) }
func (e *liveEngine) SetPartitionClass(id sim.NodeID, cls int) { e.hub.SetPartitionClass(id, cls) }
func (e *liveEngine) ClearPartitions()                         { e.hub.ClearPartitions() }
func (e *liveEngine) SetLossRate(rate float64)                 { e.hub.SetLossRate(rate) }
func (e *liveEngine) AliveIDs() []sim.NodeID                   { return e.hub.AliveIDs() }
func (e *liveEngine) AliveCount() int                          { return e.hub.AliveCount() }

// AwaitStep sleeps until the hub clock reaches the target tick.
func (e *liveEngine) AwaitStep(step int64) {
	for e.hub.Now() < step {
		time.Sleep(e.tick / 4)
	}
}

func (e *liveEngine) buildNode() *core.Node {
	cfg := nodeConfig(aliveDirectory{Directory: e.dir, alive: e.hub.Alive}, e.cover)
	node, err := core.NewNode(cfg)
	if err != nil {
		panic(fmt.Sprintf("conform: NewNode: %v", err)) // static config
	}
	node.OnDeliverHook(func(ev core.EventID, _ filter.Event) {
		e.rec.deliver(ev, node.ID())
	})
	return node
}

func (e *liveEngine) attach(id sim.NodeID, restart bool) {
	node := e.buildNode()
	var peer *livenet.Peer
	var err error
	if restart {
		peer, err = e.hub.Restart(id, node)
	} else {
		peer, err = e.hub.AddPeer(id, node)
	}
	if err != nil {
		panic(fmt.Sprintf("conform: live attach %d: %v", id, err))
	}
	e.nodes[id] = node
	e.peers[id] = peer
}

func (e *liveEngine) AddNode() sim.NodeID {
	id := e.pop.allocID()
	e.attach(id, false)
	return id
}

func (e *liveEngine) Subscribe(id sim.NodeID, sub filter.Subscription) error {
	node, peer := e.nodes[id], e.peers[id]
	var subErr error
	if err := peer.Do(func() { subErr = node.Subscribe(sub) }); err != nil {
		return err
	}
	if subErr != nil {
		return subErr
	}
	if err := e.rec.subscribe(id, sub); err != nil {
		return err
	}
	e.pop.remember(id, sub)
	return nil
}

func (e *liveEngine) Publish(id sim.NodeID, ev core.EventID, event filter.Event) error {
	node, peer := e.nodes[id], e.peers[id]
	var pubErr error
	if err := peer.Do(func() { pubErr = node.Publish(ev, event) }); err != nil {
		return err
	}
	return pubErr
}

func (e *liveEngine) PublishMany(id sim.NodeID, evs []core.EventID, events []filter.Event) error {
	node, peer := e.nodes[id], e.peers[id]
	var pubErr error
	if err := peer.Do(func() {
		for i := range evs {
			if pubErr = node.Publish(evs[i], events[i]); pubErr != nil {
				return
			}
		}
	}); err != nil {
		return err
	}
	return pubErr
}

func (e *liveEngine) Restart(id sim.NodeID) {
	e.attach(id, true)
	node, peer := e.nodes[id], e.peers[id]
	subs := e.pop.durable(id)
	if err := peer.Do(func() {
		for _, sub := range subs {
			if err := node.Subscribe(sub); err != nil {
				panic(fmt.Sprintf("conform: re-subscribe after restart: %v", err))
			}
		}
	}); err != nil {
		panic(fmt.Sprintf("conform: restart %d: %v", id, err))
	}
}

func (e *liveEngine) Join() sim.NodeID {
	id := e.AddNode()
	for s := 0; s < e.pop.perNode; s++ {
		if err := e.Subscribe(id, e.pop.gen.Subscription()); err != nil {
			panic(fmt.Sprintf("conform: join subscribe: %v", err))
		}
	}
	return id
}

func (e *liveEngine) Leave(id sim.NodeID) {
	node, peer := e.nodes[id], e.peers[id]
	if node == nil {
		return
	}
	subs := e.pop.forget(id)
	if err := peer.Do(func() {
		for _, sub := range subs {
			if err := node.Unsubscribe(sub); err != nil {
				panic(fmt.Sprintf("conform: unsubscribe on leave: %v", err))
			}
		}
	}); err != nil {
		return // peer crashed mid-leave: subscriptions die with it
	}
	e.rec.leave(id)
}

// StructuralSnapshot collects the node's snapshot on its own goroutine —
// the per-peer snapshot request of the quiesce-window read.
func (e *liveEngine) StructuralSnapshot(id sim.NodeID) []core.MembershipSnapshot {
	node, peer := e.nodes[id], e.peers[id]
	if node == nil || !e.hub.Alive(id) {
		return nil
	}
	var snaps []core.MembershipSnapshot
	if err := peer.Do(func() { snaps = node.StructuralSnapshot() }); err != nil {
		return nil // crashed between AliveIDs and the request
	}
	return snaps
}

// Corrupt applies the op on the peer's own goroutine via Peer.Do — the
// corruption mutates node state, which only that goroutine may touch.
func (e *liveEngine) Corrupt(id sim.NodeID, op core.CorruptionOp) bool {
	node, peer := e.nodes[id], e.peers[id]
	if node == nil || !e.hub.Alive(id) {
		return false
	}
	var ok bool
	if err := peer.Do(func() { ok = node.ApplyCorruption(op) }); err != nil {
		return false // crashed between AliveIDs and the request
	}
	return ok
}

func (e *liveEngine) TreeOwner(attr string) (sim.NodeID, bool) { return e.dir.Owner(attr) }

func (e *liveEngine) Stats() EngineStats {
	var inbox int64
	for _, p := range e.peers {
		inbox += p.Dropped()
	}
	loss, partition := e.hub.DroppedFaults()
	return EngineStats{InboxDropped: inbox, FaultLoss: loss, FaultPartition: partition}
}

func (e *liveEngine) Close() { e.hub.Close() }
