// Package experiments reproduces every table and figure of the paper's
// evaluation (§5.2): Table 1 (false positives under three workloads),
// Figure 3(a) dependability, 3(b) recovery, 3(c)/(d) scalability,
// 3(e)/(f) leader vs epidemic and 3(g) root vs generic load comparisons,
// plus the §5.1 analytical comparison. Each experiment returns a typed
// result with a Render method that prints the same rows/series the paper
// reports; cmd/dps-bench is the CLI front end and bench_test.go wraps each
// at reduced scale.
package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/metrics"
	"github.com/dps-overlay/dps/internal/semtree"
	"github.com/dps-overlay/dps/internal/sim"
	"github.com/dps-overlay/dps/internal/workload"
)

// ConfigSpec names one DPS implementation variant under test, matching
// the labels of the paper's plots (e.g. "epidemic root k = 2").
type ConfigSpec struct {
	Name        string
	Traversal   core.TraversalMode
	Comm        core.CommMode
	Fanout      int // epidemic k; 0 keeps the default
	CrossFanout int // epidemic k'; 0 keeps the default
}

// Apply mutates a node config according to the spec.
func (s ConfigSpec) Apply(cfg *core.Config) {
	cfg.Traversal = s.Traversal
	cfg.Comm = s.Comm
	if s.Fanout > 0 {
		cfg.Fanout = s.Fanout
	}
	if s.CrossFanout > 0 {
		cfg.CrossFanout = s.CrossFanout
	}
}

// PaperConfigs returns the six configurations of Figure 3(a).
func PaperConfigs() []ConfigSpec {
	return []ConfigSpec{
		{Name: "leader root", Traversal: core.RootBased, Comm: core.LeaderBased},
		{Name: "leader generic", Traversal: core.Generic, Comm: core.LeaderBased},
		{Name: "epidemic root", Traversal: core.RootBased, Comm: core.Epidemic},
		{Name: "epidemic generic", Traversal: core.Generic, Comm: core.Epidemic},
		{Name: "epidemic root k = 2", Traversal: core.RootBased, Comm: core.Epidemic, Fanout: 2, CrossFanout: 2},
		{Name: "epidemic generic k = 2", Traversal: core.Generic, Comm: core.Epidemic, Fanout: 2, CrossFanout: 2},
	}
}

// Cluster is the experiment substrate: a cycle engine running DPS nodes
// plus the bookkeeping every figure needs — an oracle mirror of all
// subscriptions (for expected-recipient sets), traffic counters, and a
// delivery tracker.
type Cluster struct {
	Engine   *sim.Engine
	Dir      *core.SharedDirectory
	Nodes    map[sim.NodeID]*core.Node
	Registry *metrics.Registry
	Tracker  *metrics.DeliveryTracker
	Oracle   *semtree.Forest

	// Contacted/Delivered per event (Table 1 protocol mode). Guarded by
	// mu: the hook that fills it runs on engine workers in parallel mode.
	Contacted map[core.EventID]map[sim.NodeID]bool

	// MutateConfig, when set, adjusts every new node's configuration after
	// the ConfigSpec applies (ablation studies).
	MutateConfig func(*core.Config)

	// treeForwards counts inter-group tree hops (core.TreeForwards) across
	// every send — the fan-out-suppression metric. Atomic: the send hook
	// runs on engine workers in parallel mode. The total is a sum, so it
	// stays seed-deterministic at any worker count.
	treeForwards int64

	mu        sync.Mutex
	spec      ConfigSpec
	seed      int64
	nextID    sim.NodeID
	NextEvent core.EventID
}

// NewCluster builds an empty cluster for the given configuration on the
// sequential executor. Use SetParallelism (or NewClusterParallel) to fan
// the engine out over a worker pool — metrics are bit-identical either
// way.
func NewCluster(spec ConfigSpec, seed int64) *Cluster {
	c := &Cluster{
		Dir:       core.NewSharedDirectory(),
		Nodes:     make(map[sim.NodeID]*core.Node),
		Registry:  metrics.NewRegistry(),
		Tracker:   metrics.NewDeliveryTracker(),
		Oracle:    semtree.New(),
		Contacted: make(map[core.EventID]map[sim.NodeID]bool),
		spec:      spec,
		seed:      seed,
	}
	c.Engine = sim.NewEngine(sim.Config{
		Seed: seed,
		OnSend: func(from, to sim.NodeID, msg any) {
			c.Registry.Sent(int64(from), metrics.KindOf(msg))
			if hops := core.TreeForwards(msg); hops > 0 {
				atomic.AddInt64(&c.treeForwards, hops)
			}
		},
		OnDeliver: func(from, to sim.NodeID, msg any) {
			c.Registry.Received(int64(to), metrics.KindOf(msg))
		},
	})
	// The directory must learn step boundaries: its snapshot
	// semantics are what keeps node processing order-independent within a
	// step, for the sequential and the parallel executor alike.
	c.Engine.AddService(c.Dir)
	return c
}

// NewClusterParallel builds a cluster whose engine runs the sharded
// parallel executor with the given worker count (see sim.Config.Workers).
func NewClusterParallel(spec ConfigSpec, seed int64, workers int) *Cluster {
	c := NewCluster(spec, seed)
	c.SetParallelism(workers)
	return c
}

// SetParallelism adjusts the engine's worker count between steps: 0 or 1
// sequential, W > 1 parallel on W workers, negative one worker per CPU.
func (c *Cluster) SetParallelism(workers int) { c.Engine.SetWorkers(workers) }

// AddNode spawns one node and returns its id.
func (c *Cluster) AddNode() sim.NodeID {
	c.nextID++
	id := c.nextID
	node := c.buildNode(id)
	if err := c.Engine.Add(id, node); err != nil {
		panic(fmt.Sprintf("experiments: engine.Add: %v", err))
	}
	c.Nodes[id] = node
	return id
}

// buildNode constructs a protocol node wired to the cluster's directory,
// hooks and metrics under the given id.
func (c *Cluster) buildNode(id sim.NodeID) *core.Node {
	cfg := core.DefaultConfig()
	cfg.Directory = core.LiveDirectory{Directory: c.Dir, Alive: c.Engine.Alive}
	c.spec.Apply(&cfg)
	if c.MutateConfig != nil {
		c.MutateConfig(&cfg)
	}
	node, err := core.NewNode(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: NewNode: %v", err)) // static config
	}
	node.OnEventHook(func(ev core.EventID, _ filter.Event) {
		c.mu.Lock()
		set := c.Contacted[ev]
		if set == nil {
			set = make(map[sim.NodeID]bool)
			c.Contacted[ev] = set
		}
		set[id] = true
		c.mu.Unlock()
	})
	node.OnDeliverHook(func(ev core.EventID, _ filter.Event) {
		c.Tracker.DeliverAt(metrics.EventID(ev), int64(id), c.Engine.Now())
	})
	return node
}

// Subscribe registers the subscription at the node and mirrors it in the
// oracle.
func (c *Cluster) Subscribe(id sim.NodeID, sub filter.Subscription) error {
	if err := c.Nodes[id].Subscribe(sub); err != nil {
		return err
	}
	if _, err := c.Oracle.Subscribe(semtree.MemberID(id), sub); err != nil {
		return err
	}
	return nil
}

// SubscribePopulation gives every one of n fresh nodes `perNode`
// subscriptions from the generator, feeding `batch` subscriptions per
// engine step, then settles long enough for the forest to form.
//
// The first subscription of each distinct filter goes out in a first wave,
// so every group is created exactly once; the remaining subscriptions join
// existing groups (joins are race-free). This mirrors the paper's setup
// phase ("we first issued 10,000 subscriptions to build the overlay") —
// the runtime merge machinery still covers subscriptions racing during
// measured phases.
func (c *Cluster) SubscribePopulation(n, perNode, batch int, gen *workload.Generator) {
	type job struct {
		id  sim.NodeID
		sub filter.Subscription
	}
	var creators, joiners []job
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		id := c.AddNode()
		for s := 0; s < perNode; s++ {
			sub := gen.Subscription()
			filters, err := filter.SubscriptionFilters(sub)
			if err != nil {
				panic(fmt.Sprintf("experiments: filters: %v", err))
			}
			key := filters[0].Key()
			if seen[key] {
				joiners = append(joiners, job{id: id, sub: sub})
			} else {
				seen[key] = true
				creators = append(creators, job{id: id, sub: sub})
			}
		}
	}
	feed := func(jobs []job) {
		for len(jobs) > 0 {
			k := batch
			if k > len(jobs) {
				k = len(jobs)
			}
			for _, j := range jobs[:k] {
				// Unsatisfiable filters cannot occur from the generators;
				// an error here is a harness bug.
				if err := c.Subscribe(j.id, j.sub); err != nil {
					panic(fmt.Sprintf("experiments: subscribe: %v", err))
				}
			}
			jobs = jobs[k:]
			c.Engine.Step()
		}
	}
	feed(creators)
	c.Engine.Run(25) // groups settle before the join wave
	feed(joiners)
	c.Engine.Run(120) // settle joins, co-leader announcements, adoption
}

// PublishTracked publishes an event from a random live node, registering
// the oracle-expected recipient set (matching subscribers alive right
// now) with the delivery tracker.
func (c *Cluster) PublishTracked(ev filter.Event, rngDraw int64) core.EventID {
	c.NextEvent++
	id := c.NextEvent
	publisher := c.randomAlive(rngDraw)
	if publisher == 0 {
		return id
	}
	expected := make([]int64, 0, 64)
	for m := range c.Oracle.MatchingMembers(ev) {
		if c.Engine.Alive(sim.NodeID(m)) {
			expected = append(expected, int64(m))
		}
	}
	c.Tracker.Publish(metrics.EventID(id), c.Engine.Now(), expected)
	if err := c.Nodes[publisher].Publish(id, ev); err != nil {
		panic(fmt.Sprintf("experiments: publish: %v", err))
	}
	return id
}

// randomAlive picks a live node deterministically from the draw value.
func (c *Cluster) randomAlive(draw int64) sim.NodeID {
	ids := c.Engine.AliveIDs()
	if len(ids) == 0 {
		return 0
	}
	if draw < 0 {
		draw = -draw
	}
	return ids[draw%int64(len(ids))]
}

// KillRandomAlive crashes one random live node; the oracle keeps its
// subscriptions (expected sets filter by liveness at publish time).
func (c *Cluster) KillRandomAlive(draw int64) sim.NodeID {
	id := c.randomAlive(draw)
	if id != 0 {
		c.Engine.Kill(id)
	}
	return id
}

// TreeForwards returns the cumulative inter-group tree-hop count (safe
// to read between engine steps; see core.TreeForwards).
func (c *Cluster) TreeForwards() int64 { return atomic.LoadInt64(&c.treeForwards) }

// RoutingBytesPerNode averages core.Node.RoutingStateBytes over the live
// population — the routing-table size metric of the scale experiment.
func (c *Cluster) RoutingBytesPerNode() float64 {
	ids := c.Engine.AliveIDs()
	if len(ids) == 0 {
		return 0
	}
	var total int64
	for _, id := range ids {
		if n := c.Nodes[id]; n != nil {
			total += n.RoutingStateBytes()
		}
	}
	return float64(total) / float64(len(ids))
}

// AliveInt64s returns live node ids as int64 for metrics helpers.
func (c *Cluster) AliveInt64s() []int64 {
	ids := c.Engine.AliveIDs()
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[i] = int64(id)
	}
	return out
}
