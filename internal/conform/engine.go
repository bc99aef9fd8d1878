package conform

import (
	"fmt"
	"math/rand"

	"github.com/dps-overlay/dps/internal/chaos"
	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/livenet"
	"github.com/dps-overlay/dps/internal/metrics"
	"github.com/dps-overlay/dps/internal/semtree"
	"github.com/dps-overlay/dps/internal/sim"
	"github.com/dps-overlay/dps/internal/workload"
)

// Engine is the one engine every DPS run drives — the chaos and
// conformance runs here and the paper experiments of
// internal/experiments: the population's workload, the delivery
// recorder and one record per node id over one of three runtimes — the
// cycle simulator (the reference), the livenet goroutine hub, or a
// tcpnet deployment on loopback. Every protocol-facing method (adding,
// subscribing, publishing, restarting, joining, leaving, snapshotting,
// corrupting) is implemented here once; the runtime supplies only what
// differs between them: hosting a node under an id, reaching it (a
// direct call, Peer.Do or Transport.Do), liveness, the clock, the
// tree-owner read, the fault drop counters and teardown.
//
// The runner drives every method from a single goroutine, so the node
// records need no lock; the runtimes lock whatever their own goroutines
// (peers, transports) share.
type Engine struct {
	runtime

	name   string // "sim", "live" or "tcp", for error messages
	spec   ConfigSpec
	mutate func(*core.Config) // adjusts each node's config after spec (ablations); may be nil
	// gen draws the subscriptions Bootstrap and Join issue, perNode per
	// node, and the events PublishTracked publishes.
	gen     *workload.Generator
	perNode int
	rec     *recorder
	// nodes holds every id ever added; ids are sequential from 1.
	nodes map[sim.NodeID]*identity
	// lastEvent is the id PublishTracked last allocated; ids are
	// sequential from 1.
	lastEvent core.EventID
}

// Every conformance engine is the chaos checker's read-only Target, the
// injector's fault surface and population, and a chaos.Corruptor: the
// injector discovers the corruption surface on the engine itself, so
// corruption scenarios run on all three runtimes.
var (
	_ chaos.Target       = (*Engine)(nil)
	_ chaos.FaultSurface = (*Engine)(nil)
	_ chaos.Population   = (*Engine)(nil)
	_ chaos.Corruptor    = (*Engine)(nil)
)

// runtime is what differs between the three engines (runtimes.go).
type runtime interface {
	chaos.FaultSurface
	// Alive reports whether the id hosts a live node — the liveness view
	// every node's directory filters contacts by.
	Alive(id sim.NodeID) bool
	// host starts a node under id: a fresh id, or the next incarnation of
	// a killed one. build makes the node over the directory the runtime
	// gives it; the handle reaches it afterwards.
	host(id sim.NodeID, build func(core.Directory) *core.Node) (handle, error)
	// advance lets logical time pass: the cycle engine runs one step, the
	// live runtimes sleep a fraction of a tick.
	advance()
	// TreeOwner reports the directory's current owner of an attribute
	// tree (chaos.Target).
	TreeOwner(attr string) (sim.NodeID, bool)
	// DroppedFaults counts the messages eaten by loss windows and by cuts
	// or partition classes.
	DroppedFaults() (loss, partition int64)
	// Close tears the runtime down.
	Close()
}

// handle reaches one hosted node from the runner.
type handle interface {
	// Do runs fn on the node's own goroutine and waits for it (core
	// nodes are single-goroutine by design); it fails once the node is
	// gone.
	Do(fn func()) error
	// Dropped counts the messages the node's inbox overflowed.
	Dropped() int64
}

// identity is what the engine keeps under one node id, across its
// incarnations.
type identity struct {
	node *core.Node // the current incarnation
	h    handle     // reaches it
	// subs are the durable subscriptions a restart re-issues.
	subs []filter.Subscription
	// drops sums the inbox drops of the incarnations restarts replaced,
	// so Stats covers the whole run.
	drops int64
}

// newEngine builds the named engine over a fresh population: Workload 2
// at the options' seed, SubsPerNode subscriptions per node.
func newEngine(name string, opts Options) (*Engine, error) {
	var rt runtime
	switch name {
	case EngineSim:
		rt = newSimRuntime(opts.Seed, opts.Workers)
	case EngineLive:
		rt = newLiveRuntime(livenet.Config{TickEvery: opts.TickEvery, Seed: opts.Seed})
	case EngineTCP:
		tcp, err := newTCPRuntime(opts)
		if err != nil {
			return nil, err
		}
		rt = tcp
	default:
		return nil, fmt.Errorf("conform: unknown engine %q", name)
	}
	gen := workload.MustGenerator(workload.Workload2(), opts.Seed)
	return engineOn(name, rt, opts.Config, gen, opts.SubsPerNode), nil
}

// engineOn wraps a runtime in the engine; its nodes run the spec's
// protocol variant.
func engineOn(name string, rt runtime, spec ConfigSpec, gen *workload.Generator, perNode int) *Engine {
	return &Engine{runtime: rt, name: name, spec: spec, gen: gen, perNode: perNode,
		rec: newRecorder(), nodes: make(map[sim.NodeID]*identity)}
}

// NewSimEngine builds an engine over the cycle simulator for the paper
// experiments: seeded by seed, stepping on workers (0/1 sequential, W > 1
// parallel on W workers, negative one per CPU — results are
// bit-identical either way), its nodes running spec adjusted by mutate
// (nil for none). Bootstrap and Join draw perNode subscriptions per node
// from gen, and PublishTracked draws its events from it.
func NewSimEngine(spec ConfigSpec, seed int64, workers int, gen *workload.Generator, perNode int, mutate func(*core.Config)) *Engine {
	e := engineOn(EngineSim, newSimRuntime(seed, workers), spec, gen, perNode)
	e.mutate = mutate
	return e
}

// AwaitStep blocks until the logical clock reaches step: it drives the
// cycle engine, and waits on the live runtimes' wall clocks.
func (e *Engine) AwaitStep(step int64) {
	for e.Now() < step {
		e.advance()
	}
}

// Run lets steps logical steps pass (see AwaitStep).
func (e *Engine) Run(steps int64) { e.AwaitStep(e.Now() + steps) }

// newNode builds a protocol node of the engine's variant for id over
// dir, filtered by the runtime's liveness view, its contacted and
// delivery hooks writing the id's log. Every engine's nodes run the
// same configuration, so cross-engine differences isolate the runtime,
// not the protocol.
func (e *Engine) newNode(id sim.NodeID, dir core.Directory) *core.Node {
	cfg := core.DefaultConfig()
	cfg.Directory = core.LiveDirectory{Directory: dir, Alive: e.Alive}
	e.spec.Apply(&cfg)
	if e.mutate != nil {
		e.mutate(&cfg)
	}
	node, err := core.NewNode(cfg)
	if err != nil {
		panic(fmt.Sprintf("conform: NewNode: %v", err)) // static config
	}
	log := e.rec.log(id)
	node.OnEventHook(func(ev core.EventID, _ filter.Event) { log.contact(ev) })
	node.OnDeliverHook(func(ev core.EventID, _ filter.Event) { log.deliver(ev, e.Now()) })
	return node
}

// attach hosts a fresh incarnation under id, retiring the drop counter
// of the one it replaces.
func (e *Engine) attach(id sim.NodeID) {
	n := e.nodes[id]
	if n.h != nil {
		n.drops += n.h.Dropped()
	}
	h, err := e.host(id, func(dir core.Directory) *core.Node {
		n.node = e.newNode(id, dir)
		return n.node
	})
	if err != nil {
		panic(fmt.Sprintf("conform: %s host %d: %v", e.name, id, err))
	}
	n.h = h
}

// Do runs fn against the node under id on the node's own goroutine and
// waits for it.
func (e *Engine) Do(id sim.NodeID, fn func(*core.Node)) error {
	n, ok := e.nodes[id]
	if !ok {
		return fmt.Errorf("conform: no node %d", id)
	}
	return n.h.Do(func() { fn(n.node) })
}

// AddNode spawns one fresh protocol node and returns its id. Ids are
// sequential from 1, so identical call sequences yield identical id
// assignments on every runtime — the property the cross-engine fault
// determinism rests on.
func (e *Engine) AddNode() sim.NodeID {
	id := sim.NodeID(len(e.nodes) + 1)
	e.nodes[id] = &identity{}
	e.attach(id)
	return id
}

// Subscribe registers a subscription at a node and records it as
// durable: a later Restart of the identity re-issues it.
func (e *Engine) Subscribe(id sim.NodeID, sub filter.Subscription) error {
	var subErr error
	if err := e.Do(id, func(n *core.Node) { subErr = n.Subscribe(sub) }); err != nil {
		return err
	}
	if subErr != nil {
		return subErr
	}
	if err := e.rec.subscribe(id, sub); err != nil {
		return err
	}
	n := e.nodes[id]
	n.subs = append(n.subs, sub)
	return nil
}

// Bootstrap deploys an initial population of nodes fresh nodes, each
// with the population's per-node subscription count, in two waves: the
// first subscription of each distinct filter goes out in a creators wave
// (every group created exactly once), the rest join settled groups — the
// paper's setup phase ("we first issued 10,000 subscriptions to build the
// overlay"). Each wave feeds batch subscriptions per step; the overlay
// settles 25 steps before the join wave and 120 after it, for joins,
// co-leader announcements and adoption. Subscriptions racing during
// measured phases still exercise the runtime merge machinery.
func (e *Engine) Bootstrap(nodes, batch int) error {
	type job struct {
		id  sim.NodeID
		sub filter.Subscription
	}
	var creators, joiners []job
	seen := make(map[string]bool, nodes)
	for i := 0; i < nodes; i++ {
		id := e.AddNode()
		for s := 0; s < e.perNode; s++ {
			sub := e.gen.Subscription()
			filters, err := filter.SubscriptionFilters(sub)
			if err != nil {
				return fmt.Errorf("conform: generator produced an unsatisfiable subscription: %w", err)
			}
			if key := filters[0].Key(); seen[key] {
				joiners = append(joiners, job{id, sub})
			} else {
				seen[key] = true
				creators = append(creators, job{id, sub})
			}
		}
	}
	feed := func(jobs []job) error {
		for len(jobs) > 0 {
			k := min(batch, len(jobs))
			for _, j := range jobs[:k] {
				if err := e.Subscribe(j.id, j.sub); err != nil {
					return fmt.Errorf("conform: %s bootstrap subscribe: %w", e.name, err)
				}
			}
			jobs = jobs[k:]
			e.Run(1)
		}
		return nil
	}
	if err := feed(creators); err != nil {
		return err
	}
	e.Run(25)
	if err := feed(joiners); err != nil {
		return err
	}
	e.Run(120)
	return nil
}

// PublishTracked publishes the population generator's next event from a
// live publisher drawn from rng, under the next event id, registering
// its expected recipients with the recorder, and returns the id. The
// draw is consumed even when no publisher exists, keeping the random
// stream aligned across engines.
func (e *Engine) PublishTracked(rng *rand.Rand) core.EventID {
	e.lastEvent++
	ev := e.lastEvent
	event := e.gen.Event()
	draw := rng.Int63()
	alive := e.AliveIDs()
	if len(alive) == 0 {
		return ev
	}
	e.rec.publish(ev, event, e.Alive, e.Now())
	// An error means the publisher crashed between the draw and the call
	// (possible only through engine teardown races); the event stays
	// tracked with zero deliveries.
	_ = e.Publish(alive[draw%int64(len(alive))], ev, event)
	return ev
}

// Publish injects a tracked event at a node.
func (e *Engine) Publish(id sim.NodeID, ev core.EventID, event filter.Event) error {
	return e.PublishMany(id, []core.EventID{ev}, []filter.Event{event})
}

// PublishMany injects a run of tracked events at one node in a single
// scheduling round (one Do) — the throughput experiment's bulk path. evs
// and events are parallel.
func (e *Engine) PublishMany(id sim.NodeID, evs []core.EventID, events []filter.Event) error {
	var pubErr error
	if err := e.Do(id, func(n *core.Node) {
		for i := range evs {
			if pubErr = n.Publish(evs[i], events[i]); pubErr != nil {
				return
			}
		}
	}); err != nil {
		return err
	}
	return pubErr
}

// Restart revives a crashed identity with a fresh protocol instance
// re-issuing its durable subscriptions (chaos.Population).
func (e *Engine) Restart(id sim.NodeID) {
	e.attach(id)
	subs := e.nodes[id].subs
	if err := e.Do(id, func(n *core.Node) {
		for _, sub := range subs {
			if err := n.Subscribe(sub); err != nil {
				panic(fmt.Sprintf("conform: re-subscribe after restart: %v", err))
			}
		}
	}); err != nil {
		panic(fmt.Sprintf("conform: restart %d: %v", id, err))
	}
}

// Join adds one fresh subscriber with the population's per-node
// subscription count (chaos.Population).
func (e *Engine) Join() sim.NodeID {
	id := e.AddNode()
	for s := 0; s < e.perNode; s++ {
		if err := e.Subscribe(id, e.gen.Subscription()); err != nil {
			panic(fmt.Sprintf("conform: join subscribe: %v", err))
		}
	}
	return id
}

// Leave withdraws all of a node's subscriptions gracefully
// (chaos.Population).
func (e *Engine) Leave(id sim.NodeID) {
	n, ok := e.nodes[id]
	if !ok {
		return
	}
	subs := n.subs
	n.subs = nil
	if err := e.Do(id, func(n *core.Node) {
		for _, sub := range subs {
			if err := n.Unsubscribe(sub); err != nil {
				panic(fmt.Sprintf("conform: unsubscribe on leave: %v", err))
			}
		}
	}); err != nil {
		return // the node crashed mid-leave: its subscriptions die with it
	}
	e.rec.leave(id)
}

// StructuralSnapshot returns deep-copied membership snapshots of one live
// node, collected on the node's own goroutine — the quiesce-window read
// feeding the invariant checker. A node that crashed between AliveIDs and
// this call returns nil.
func (e *Engine) StructuralSnapshot(id sim.NodeID) []core.MembershipSnapshot {
	if !e.Alive(id) {
		return nil
	}
	var snaps []core.MembershipSnapshot
	if err := e.Do(id, func(n *core.Node) { snaps = n.StructuralSnapshot() }); err != nil {
		return nil
	}
	return snaps
}

// Corrupt applies a structural corruption op to one live node on the
// node's own goroutine — the op mutates node state, which only that
// goroutine may touch (chaos.Corruptor). It returns false when the node
// is dead or ineligible for the op.
func (e *Engine) Corrupt(id sim.NodeID, op core.CorruptionOp) bool {
	if !e.Alive(id) {
		return false
	}
	var ok bool
	if err := e.Do(id, func(n *core.Node) { ok = n.ApplyCorruption(op) }); err != nil {
		return false
	}
	return ok
}

// Stats reports the engine's drop counters for the run record, over
// every incarnation of every node.
func (e *Engine) Stats() EngineStats {
	var inbox int64
	for _, n := range e.nodes {
		inbox += n.drops + n.h.Dropped()
	}
	loss, partition := e.DroppedFaults()
	return EngineStats{InboxDropped: inbox, FaultLoss: loss, FaultPartition: partition}
}

// Ratio is the paper's dependability metric: the fraction of (event,
// live matching subscriber) pairs notified, over every tracked event; 1
// when nothing was expected.
func (e *Engine) Ratio() float64 { return e.rec.ratio() }

// WindowRatio restricts Ratio to the events published in steps
// [from, to).
func (e *Engine) WindowRatio(from, to int64) float64 { return e.rec.windowRatio(from, to) }

// Latencies returns the publish-to-first-delivery steps of every
// delivered expected pair, ascending.
func (e *Engine) Latencies() []int64 { return e.rec.latencies() }

// Expected returns the ascending ids of the live matching subscribers a
// tracked event was published to.
func (e *Engine) Expected(ev core.EventID) []sim.NodeID { return sortedIDs(e.rec.expected[ev]) }

// Delivered returns the ascending ids of every node notified of an
// event, expected or not.
func (e *Engine) Delivered(ev core.EventID) []sim.NodeID { return sortedIDs(e.rec.deliveredFor(ev)) }

// ContactedPairs counts the (event, node) pairs in which the node
// handled the event: Table 1's contacted sets, summed over every event.
func (e *Engine) ContactedPairs() int { return e.rec.contactedPairs() }

// Repeats counts the notifications of an (event, node) pair already
// notified: a node must deliver each event once.
func (e *Engine) Repeats() int { return e.rec.repeats() }

// Oracle is the forest mirroring every subscription the engine's nodes
// hold (read it between steps).
func (e *Engine) Oracle() *semtree.Forest { return e.rec.oracle }

// RoutingBytesPerNode averages core.Node.RoutingStateBytes over the live
// population — the routing-table size metric of the scale experiment.
func (e *Engine) RoutingBytesPerNode() float64 {
	ids := e.AliveIDs()
	if len(ids) == 0 {
		return 0
	}
	var total int64
	for _, id := range ids {
		_ = e.Do(id, func(n *core.Node) { total += n.RoutingStateBytes() })
	}
	return float64(total) / float64(len(ids))
}

// The figure readers below exist on the cycle engine only; off it they
// panic. Read them between steps.

// cycle returns the engine's cycle-simulator runtime.
func (e *Engine) cycle() *simRuntime { return e.runtime.(*simRuntime) }

// Workers reports the cycle engine's resolved worker count.
func (e *Engine) Workers() int { return e.cycle().Workers() }

// Traffic snapshots every node's cumulative message counts by kind, fed
// by every send and delivery.
func (e *Engine) Traffic() map[int64]metrics.Counts { return e.TrafficSince(nil) }

// TrafficSince returns each node's counts accumulated since the prev
// snapshot; nodes absent from it count from zero.
func (e *Engine) TrafficSince(prev map[int64]metrics.Counts) map[int64]metrics.Counts {
	out := make(map[int64]metrics.Counts, len(e.cycle().traffic))
	for id, c := range e.cycle().traffic {
		out[id] = c.Sub(prev[id])
	}
	return out
}

// TreeForwards returns the cumulative inter-group tree-hop count (see
// core.TreeForwards).
func (e *Engine) TreeForwards() int64 { return e.cycle().treeForwards }
