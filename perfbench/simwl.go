package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/dps-overlay/dps/internal/chaos"
	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
	"github.com/dps-overlay/dps/internal/workload"
)

// simShape is one cycle-engine workload: population, event rate, churn.
type simShape struct {
	nodes, perNode int
	eventEvery     int64 // steps between publications
	churn          bool
}

// Costs are taken per window of at most simWindow steps. While the
// overlay settles, the invariants are swept every checkEvery steps;
// it is settled once every sweep over the last stableSteps steps was
// clean, and must get there within settleLimit steps.
const (
	simWindow   = 50
	checkEvery  = 10
	stableSteps = 300
	settleLimit = 5000
)

// liveDir makes directory contact draws skip crashed nodes, as the random
// walks the directory stands in for would (the cycle-engine deployment's
// directory; see internal/experiments).
type liveDir struct {
	core.Directory
	alive func(sim.NodeID) bool
}

func (d liveDir) Contact(attr string, rng *rand.Rand) (sim.NodeID, bool) {
	for i := 0; i < 16; i++ {
		id, ok := d.Directory.Contact(attr, rng)
		if !ok {
			return 0, false
		}
		if d.alive(id) {
			return id, true
		}
		d.Directory.DropContact(attr, id)
	}
	return 0, false
}

// simCluster is a cycle engine running proxied nodes, with the program
// clock: the time spent inside calls into the program (Step, Publish,
// churn operations), which excludes the oracle and invariant sweeps the
// benchmark runs between steps.
type simCluster struct {
	shape  simShape
	eng    *sim.Engine
	dir    *core.SteppedDirectory
	tr     *Tracer
	own    *lane                     // the benchmark's own calls into the engine
	procs  map[sim.NodeID]*nodeProxy // current incarnations
	all    []*nodeProxy              // every incarnation, for deliveries and counts
	orc    *oracle
	subGen *workload.Generator
	evGen  *workload.Generator
	rng    *rand.Rand
	nextID sim.NodeID
	nextEv core.EventID
	subsOf map[sim.NodeID][]filter.Subscription // durable subscriptions, re-issued on restart
	drops  int64
	chk    *chaos.Checker

	progNs    int64
	cpu       time.Duration
	inCall    bool
	callStart time.Time
}

func newSimCluster(shape simShape, seed int64, tr *Tracer) *simCluster {
	c := &simCluster{
		shape:  shape,
		dir:    core.NewSteppedDirectory(),
		tr:     tr,
		own:    tr.newLane(0),
		procs:  make(map[sim.NodeID]*nodeProxy),
		orc:    newOracle(),
		subGen: workload.MustGenerator(workload.Workload2(), popSeed),
		evGen:  workload.MustGenerator(workload.Workload2(), seed^0x5eed),
		rng:    rand.New(rand.NewSource(seed ^ 0x9b11)),
		subsOf: make(map[sim.NodeID][]filter.Subscription),
	}
	// The engine's random streams are part of the deployment, like the
	// subscription population: every run builds the same overlay, so
	// set-ups do the same work.
	c.eng = sim.NewEngine(sim.Config{
		Seed:   popSeed,
		OnDrop: func(sim.NodeID, sim.NodeID, any, sim.DropReason) { c.drops++ },
	})
	c.eng.AddService(c.dir)
	c.chk = chaos.NewChecker(c, chaos.CheckerOptions{LeaderMode: true})
	return c
}

// clock is the program clock in nanoseconds.
func (c *simCluster) clock() int64 {
	if c.inCall {
		return c.progNs + int64(time.Since(c.callStart))
	}
	return c.progNs
}

// call runs fn on the program clock and the CPU account.
func (c *simCluster) call(fn func()) {
	cpu0 := processCPU()
	c.inCall, c.callStart = true, time.Now()
	fn()
	c.progNs += int64(time.Since(c.callStart))
	c.inCall = false
	c.cpu += processCPU() - cpu0
}

// step runs one engine step; traced, it records the benchmark's Step span
// with the node handlers it ran subtracted.
func (c *simCluster) step() {
	if !c.tr.on() {
		c.call(c.eng.Step)
		return
	}
	h0, t0 := c.tr.handlerSum(), c.tr.now()
	c.call(c.eng.Step)
	dur := c.tr.now() - t0
	c.own.addCallSpan(spanStep, dur, dur-(c.tr.handlerSum()-h0))
}

func (c *simCluster) spawn(id sim.NodeID) (*nodeProxy, error) {
	p, err := newNodeProxy(id, liveDir{Directory: c.dir, alive: c.eng.Alive}, c.tr, c.clock)
	if err != nil {
		return nil, err
	}
	c.procs[id] = p
	c.all = append(c.all, p)
	return p, nil
}

func (c *simCluster) addNode() (sim.NodeID, error) {
	c.nextID++
	p, err := c.spawn(c.nextID)
	if err != nil {
		return 0, err
	}
	return c.nextID, c.eng.Add(c.nextID, p)
}

func (c *simCluster) subscribe(id sim.NodeID, sub filter.Subscription) error {
	if err := c.procs[id].Subscribe(sub); err != nil {
		return fmt.Errorf("subscribe node %d: %w", id, err)
	}
	c.orc.subscribe(id, sub)
	c.subsOf[id] = append(c.subsOf[id], sub)
	return nil
}

// build creates the population and steps until every node's
// subscriptions are served by active memberships. As in the paper's set-up
// phase, the first subscription of each distinct filter goes out first,
// so each group is created once and the rest join it.
func (c *simCluster) build() error {
	type job struct {
		id  sim.NodeID
		sub filter.Subscription
	}
	var creators, joiners []job
	seen := make(map[string]bool)
	for i := 0; i < c.shape.nodes; i++ {
		id, err := c.addNode()
		if err != nil {
			return err
		}
		for s := 0; s < c.shape.perNode; s++ {
			sub := c.subGen.Subscription()
			fs, err := filter.SubscriptionFilters(sub)
			if err != nil {
				return err
			}
			if key := fs[0].Key(); !seen[key] {
				seen[key] = true
				creators = append(creators, job{id, sub})
			} else {
				joiners = append(joiners, job{id, sub})
			}
		}
	}
	batch := max(50, c.shape.nodes/100)
	feed := func(jobs []job) error {
		for len(jobs) > 0 {
			k := min(batch, len(jobs))
			for _, j := range jobs[:k] {
				if err := c.subscribe(j.id, j.sub); err != nil {
					return err
				}
			}
			jobs = jobs[k:]
			c.step()
		}
		return nil
	}
	if err := feed(creators); err != nil {
		return err
	}
	for i := 0; i < 25; i++ {
		c.step()
	}
	if err := feed(joiners); err != nil {
		return err
	}
	for n := 0; n < settleLimit; n += checkEvery {
		if c.settled() {
			return nil
		}
		for i := 0; i < checkEvery; i++ {
			c.step()
		}
	}
	return fmt.Errorf("memberships not active after %d steps", settleLimit)
}

// settle steps until the overlay has been legal for stableSteps steps:
// the warm-up between set-up and the measured phase. Legal is what the protocol promises delivery in: every
// live node serves all its subscriptions from active memberships
// (core.Node.Inspect) and an invariant sweep (chaos.Checker) finds
// nothing. Neither active memberships nor legal once is enough: for a few
// hundred steps after a build or a repair first checks legal, groups
// still merge duplicate instances and hand leadership on, with sweeps
// going dirty in between, and events published then can miss
// subscribers.
func (c *simCluster) settle() error {
	clean := int64(0)
	for n := int64(checkEvery); n <= settleLimit; n += checkEvery {
		for i := 0; i < checkEvery; i++ {
			c.step()
		}
		if clean += checkEvery; !c.legal() {
			clean = 0
		}
		if clean == stableSteps {
			return nil
		}
	}
	return fmt.Errorf("overlay not settled after %d steps", settleLimit)
}

// legal runs one sweep, off the program clock.
func (c *simCluster) legal() bool {
	return c.settled() && c.chk.Check(c.eng.Now()).Total == 0
}

// chaos.Target: read-only views for the invariant checker.

func (c *simCluster) AliveIDs() []sim.NodeID { return c.eng.AliveIDs() }
func (c *simCluster) StructuralSnapshot(id sim.NodeID) []core.MembershipSnapshot {
	return c.procs[id].node.StructuralSnapshot()
}
func (c *simCluster) TreeOwner(attr string) (sim.NodeID, bool) { return c.dir.Owner(attr) }

// settled reports whether every live node serves all its subscriptions
// from active memberships (per core.Node.Inspect).
func (c *simCluster) settled() bool {
	for id, p := range c.procs {
		if !c.eng.Alive(id) {
			continue
		}
		if len(p.node.Subscriptions()) != len(c.subsOf[id]) {
			return false
		}
		for _, m := range p.node.Inspect() {
			if m.State != "active" {
				return false
			}
		}
	}
	return true
}

func (c *simCluster) routingBytesPerNode() float64 {
	var total int64
	ids := c.eng.AliveIDs()
	for _, id := range ids {
		total += c.procs[id].node.RoutingStateBytes()
	}
	return ratio(float64(total), float64(len(ids)))
}

func (c *simCluster) counters() nodeCounters {
	var t nodeCounters
	for _, p := range c.all {
		t.add(p.cnt)
	}
	return t
}

func (c *simCluster) deliveries() []delivery {
	var ds []delivery
	for _, p := range c.all {
		ds = append(ds, p.deliveries...)
	}
	return ds
}

// publish sends the next event from a random live node. The expected set
// is computed before the call, off the program clock.
func (c *simCluster) publish(phase int) error {
	ids := c.eng.AliveIDs()
	from := ids[c.rng.Intn(len(ids))]
	ev := c.evGen.Event()
	c.nextEv++
	id := c.nextEv
	c.orc.record(id, &publication{ev: ev, at: c.clock(), step: c.eng.Now(),
		expected: c.orc.expect(ev, c.eng.Alive), phase: phase})
	var err error
	c.call(func() { err = c.procs[from].Publish(id, ev) })
	return err
}

// simPhase is what one measured phase observed.
type simPhase struct {
	nodeSteps int64
	windows   []stepWindow
	cnt       nodeCounters
	rt0, rt1  runtimeSample
	drops     int64
}

// stepWindow is a run of steps of one kind (kind: the churn state, or 0
// without churn): its node-steps, and its program and CPU seconds at
// reference speed.
type stepWindow struct {
	kind            int
	nodeSteps       float64
	progSec, cpuSec float64
}

// perNodeStep estimates the seconds (program or CPU, per sec) a phase
// took, robustly: for each kind of window, the median seconds per
// node-step over its windows times the kind's node-steps. A slow window
// then costs its kind one sample, and the run's mix of kinds counts as it
// ran: a churn cycle's repair and publishing cost different amounts per
// node-step, and one median over both would follow whichever had more
// windows.
func perNodeStep(ws []stepWindow, sec func(stepWindow) float64) float64 {
	byKind := make(map[int][]window)
	for _, w := range ws {
		byKind[w.kind] = append(byKind[w.kind], window{sec(w), w.nodeSteps})
	}
	var total float64
	for _, kw := range byKind {
		var steps float64
		for _, w := range kw {
			steps += w.den
		}
		total += windowedRate(kw) * steps
	}
	return total
}

func progSec(w stepWindow) float64 { return w.progSec }
func cpuSec(w stepWindow) float64  { return w.cpuSec }

// forDuration keeps a phase running for d of wall time.
func forDuration(d time.Duration) func(int64) bool {
	start := time.Now()
	return func(int64) bool { return time.Since(start) < d }
}

// run steps the cluster while more(step) holds. Without churn it
// publishes one event every eventEvery steps and may stop at the end of
// any window; with churn, the churn cycle says when to publish, windows
// also end where the cycle changes state, and the run stops only at the
// end of a cycle.
func (c *simCluster) run(more func(int64) bool, phase int, ch *simChurn) (simPhase, error) {
	var ph simPhase
	cnt0, drops0 := c.counters(), c.drops
	ph.rt0 = readRuntime()
	var w struct {
		steps, nodeSteps, prog, cpu int64
	}
	w.prog, w.cpu = c.progNs, int64(c.cpu)
	for i, done := int64(1), false; more(i) || !done; i++ {
		kind := 0
		pub := i%c.shape.eventEvery == 1
		if ch != nil {
			kind = int(ch.state)
			pub = ch.before()
		}
		if pub {
			if err := c.publish(phase); err != nil {
				return ph, err
			}
		}
		c.step()
		n := int64(c.eng.AliveCount())
		ph.nodeSteps += n
		w.nodeSteps += n
		w.steps++
		end := w.steps == simWindow
		done = end
		if ch != nil {
			var err error
			if done, err = ch.after(); err != nil {
				return ph, err
			}
			end = end || int(ch.state) != kind
		}
		if end {
			f := slowdown()
			ph.windows = append(ph.windows, stepWindow{kind: kind, nodeSteps: float64(w.nodeSteps),
				progSec: float64(c.progNs-w.prog) / 1e9 / f, cpuSec: float64(int64(c.cpu)-w.cpu) / 1e9 / f})
			w.steps, w.nodeSteps, w.prog, w.cpu = 0, 0, c.progNs, int64(c.cpu)
		}
	}
	ph.rt1 = readRuntime()
	ph.cnt = c.counters().sub(cnt0)
	ph.drops = c.drops - drops0
	return ph, nil
}

// drain steps without publishing or churn so in-flight events land.
func (c *simCluster) drain(steps int) int64 {
	var nodeSteps int64
	for i := 0; i < steps; i++ {
		c.step()
		nodeSteps += int64(c.eng.AliveCount())
	}
	return nodeSteps
}

// simChurn drives open-system churn — crashes, same-identity restarts,
// joins and graceful leaves, in the style of the churn-wave and
// restart-churn chaos presets — in cycles. Each cycle runs churnSpan
// steps of the fault timeline, steps until the overlay is settled again,
// publishes for publishSteps steps, then stops publishing for drainSteps
// steps so that every event lands before the next faults. Events go out
// only in a settled overlay because that is where the protocol promises
// delivery: an event published while a crashed node's subtree is being
// re-attached can miss its subscribers by design, and every published
// pair must be delivered.
type simChurn struct {
	c     *simCluster
	inj   *chaos.Injector
	v0, v int64 // the fault timeline's clock: it runs only in the churn state
	state churnState
	n     int64 // steps into the current state
	clean int64 // steps of clean sweeps in a row while repairing
	// faultAt is the step the cycle's first faults hit; repairs lists the
	// steps from there to the first sweep of the clean streak that settled
	// the overlay again.
	faultAt int64
	repairs []float64
}

type churnState int

const (
	churnFaults churnState = iota
	churnRepair
	churnPublish
	churnDrain
)

// The churn cycle's shape, in steps.
const (
	churnSpan    = 100
	publishSteps = 300
	drainSteps   = 40
)

// churnScenario repeats the churnSpan-step fault timeline: a crash pair
// and a join pair, then the restart of everything crashed, a leave and a
// join.
func churnScenario(cycles int64) chaos.Scenario {
	sc := chaos.Scenario{Name: "bench-churn", Steps: cycles * churnSpan, Converge: settleLimit}
	for base := int64(0); base < sc.Steps; base += churnSpan {
		sc.Events = append(sc.Events,
			chaos.Event{Step: base + 1, Kind: chaos.Crash, Count: 2},
			chaos.Event{Step: base + 1, Kind: chaos.Join, Count: 2},
			chaos.Event{Step: base + 40, Kind: chaos.Restart},
			chaos.Event{Step: base + 40, Kind: chaos.Leave, Count: 1},
			chaos.Event{Step: base + 40, Kind: chaos.Join, Count: 1},
		)
	}
	return sc
}

func newSimChurn(c *simCluster, seed int64) (*simChurn, error) {
	ch := &simChurn{c: c, v0: c.eng.Now()}
	inj, err := chaos.NewInjector(c.eng, ch, nil, churnScenario(10_000), seed)
	if err != nil {
		return nil, err
	}
	ch.inj = inj
	return ch, nil
}

// before runs ahead of each step: it applies the faults due, on the
// program clock, and reports whether to publish an event.
func (ch *simChurn) before() bool {
	c := ch.c
	switch ch.state {
	case churnPublish:
		return ch.n%c.shape.eventEvery == 0
	case churnFaults:
		if ch.n == 0 {
			ch.faultAt = c.eng.Now() + 1
		}
		ch.v++
		c.call(func() { ch.inj.Step(ch.v0 + ch.v) })
	}
	return false
}

// after runs after each step: it advances the cycle, sweeping the
// invariants (off the program clock) while the overlay repairs, and
// reports whether a cycle ended.
func (ch *simChurn) after() (bool, error) {
	c := ch.c
	ch.n++
	switch ch.state {
	case churnPublish:
		if ch.n == publishSteps {
			ch.state, ch.n = churnDrain, 0
		}
	case churnDrain:
		if ch.n == drainSteps {
			ch.state, ch.n = churnFaults, 0
			return true, nil
		}
	case churnFaults:
		if ch.n == churnSpan {
			ch.state, ch.n = churnRepair, 0
		}
	case churnRepair:
		if ch.n%checkEvery != 0 {
			break
		}
		if ch.clean += checkEvery; !c.legal() {
			ch.clean = 0
			if c.eng.Now()-ch.faultAt > settleLimit {
				return false, fmt.Errorf("overlay not settled %d steps after the churn at step %d", settleLimit, ch.faultAt)
			}
			break
		}
		if ch.clean == stableSteps {
			repaired := c.eng.Now() - stableSteps + checkEvery // the streak's first clean sweep
			ch.repairs = append(ch.repairs, float64(repaired-ch.faultAt))
			ch.state, ch.n, ch.clean = churnPublish, 0, 0
		}
	}
	return false, nil
}

// chaos.Population: the churn operations. Errors here are harness bugs
// (generated filters are satisfiable, ids come from the alive set).

func (ch *simChurn) Restart(id sim.NodeID) {
	c := ch.c
	p, err := c.spawn(id)
	if err == nil {
		err = c.eng.Restart(id, p)
	}
	for _, sub := range c.subsOf[id] {
		if err == nil {
			err = p.Subscribe(sub)
		}
	}
	if err != nil {
		panic(fmt.Sprintf("perfbench: restart %d: %v", id, err))
	}
}

func (ch *simChurn) Join() sim.NodeID {
	c := ch.c
	id, err := c.addNode()
	for s := 0; s < c.shape.perNode && err == nil; s++ {
		err = c.subscribe(id, c.subGen.Subscription())
	}
	if err != nil {
		panic(fmt.Sprintf("perfbench: join: %v", err))
	}
	return id
}

func (ch *simChurn) Leave(id sim.NodeID) {
	c := ch.c
	for _, sub := range c.subsOf[id] {
		if err := c.procs[id].Unsubscribe(sub); err != nil {
			panic(fmt.Sprintf("perfbench: leave %d: %v", id, err))
		}
	}
	delete(c.subsOf, id)
	c.orc.leave(id)
}

// popSeed draws every workload's subscription population. The population
// is part of the workload's definition, like its size; --seed draws what
// happens to it — events, publishers, churn — so runs with different
// seeds measure the same deployment under different traffic.
const popSeed = 1
