package main

import (
	"math/rand"
	"sync/atomic"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/metrics"
	"github.com/dps-overlay/dps/internal/sim"
)

// nodeCounters are the per-node counts the benchmark keeps whether or not
// tracing is on. Only the goroutine that runs the node writes them.
type nodeCounters struct {
	sends     [3]int64 // by metrics.Kind
	ticks     int64
	contacted int64 // OnEventHook: first receipt of an event
	delivered int64 // OnDeliverHook: first receipt matching a local subscription
}

func (c nodeCounters) sub(o nodeCounters) nodeCounters {
	for k := range c.sends {
		c.sends[k] -= o.sends[k]
	}
	c.ticks -= o.ticks
	c.contacted -= o.contacted
	c.delivered -= o.delivered
	return c
}

func (c *nodeCounters) add(o nodeCounters) {
	for k := range c.sends {
		c.sends[k] += o.sends[k]
	}
	c.ticks += o.ticks
	c.contacted += o.contacted
	c.delivered += o.delivered
}

func (c nodeCounters) totalSends() int64 { return c.sends[0] + c.sends[1] + c.sends[2] }

// delivery is one OnDeliverHook firing. At is on the workload's clock:
// program nanoseconds on the cycle engine, wall nanoseconds on the live
// engines.
type delivery struct {
	ev   core.EventID
	node sim.NodeID
	at   int64
	step int64 // the engine's logical step
}

// nodeProxy is the sim.Process the engine drives in place of the
// *core.Node: it forwards every call unchanged and, while the tracer is
// on, times it. It also hands the node a timed Env and a timed Directory.
type nodeProxy struct {
	id   sim.NodeID
	node *core.Node
	env  sim.Env
	tr   *Tracer
	lane *lane
	// clock stamps deliveries (see delivery.at).
	clock func() int64
	// onDeliver, if set, also sees each delivery (closed-loop completion).
	onDeliver func(core.EventID, sim.NodeID)

	cnt        nodeCounters
	deliveries []delivery
	// capture, when set, receives sent messages for the wire replay.
	capture *msgSampler
}

var _ sim.Process = (*nodeProxy)(nil)

// newNodeProxy builds a node with the deployed configuration —
// core.DefaultConfig with StrictRepair on, everything else default — over
// a timed wrapper of dir.
func newNodeProxy(id sim.NodeID, dir core.Directory, tr *Tracer, clock func() int64) (*nodeProxy, error) {
	p := &nodeProxy{id: id, tr: tr, lane: tr.newLane(int64(id)), clock: clock}
	cfg := core.DefaultConfig()
	cfg.StrictRepair = true
	cfg.Directory = &dirProxy{d: dir, p: p}
	node, err := core.NewNode(cfg)
	if err != nil {
		return nil, err
	}
	node.OnEventHook(func(ev core.EventID, _ filter.Event) {
		p.cnt.contacted++
		p.lane.tagEvent(int64(ev))
	})
	node.OnDeliverHook(func(ev core.EventID, _ filter.Event) {
		p.cnt.delivered++
		p.lane.tagEvent(int64(ev))
		p.deliveries = append(p.deliveries, delivery{ev: ev, node: p.id, at: p.clock(), step: p.env.Now()})
		if p.onDeliver != nil {
			p.onDeliver(ev, p.id)
		}
	})
	p.node = node
	return p, nil
}

// Attach implements sim.Process: the node gets a timed view of the env.
func (p *nodeProxy) Attach(env sim.Env) {
	p.env = env
	p.node.Attach(&envProxy{env: env, p: p})
}

// OnMessage implements sim.Process.
func (p *nodeProxy) OnMessage(from sim.NodeID, msg any) {
	if !p.tr.on() {
		p.node.OnMessage(from, msg)
		return
	}
	kind := spanControl
	if metrics.KindOf(msg) == metrics.KindEvent {
		kind = spanEvent
	}
	p.lane.begin(kind)
	p.node.OnMessage(from, msg)
	p.lane.end()
}

// OnTick implements sim.Process.
func (p *nodeProxy) OnTick() {
	p.cnt.ticks++
	if !p.tr.on() {
		p.node.OnTick()
		return
	}
	p.lane.begin(spanTick)
	p.node.OnTick()
	p.lane.end()
}

// Publish forwards core.Node.Publish.
func (p *nodeProxy) Publish(id core.EventID, ev filter.Event) error {
	if !p.tr.on() {
		return p.node.Publish(id, ev)
	}
	p.lane.begin(spanPublish)
	p.lane.tagEvent(int64(id))
	err := p.node.Publish(id, ev)
	p.lane.end()
	return err
}

// Subscribe forwards core.Node.Subscribe.
func (p *nodeProxy) Subscribe(sub filter.Subscription) error {
	if !p.tr.on() {
		return p.node.Subscribe(sub)
	}
	p.lane.begin(spanSubscribe)
	err := p.node.Subscribe(sub)
	p.lane.end()
	return err
}

// Unsubscribe forwards core.Node.Unsubscribe (untimed: no metric uses it).
func (p *nodeProxy) Unsubscribe(sub filter.Subscription) error { return p.node.Unsubscribe(sub) }

// envProxy is the Env the node sees: Send is counted, and timed inside a
// traced handler span.
type envProxy struct {
	env sim.Env
	p   *nodeProxy
}

func (e *envProxy) ID() sim.NodeID   { return e.env.ID() }
func (e *envProxy) Now() int64       { return e.env.Now() }
func (e *envProxy) Rand() *rand.Rand { return e.env.Rand() }

func (e *envProxy) Send(to sim.NodeID, msg any) {
	p := e.p
	p.cnt.sends[metrics.KindOf(msg)]++
	if p.lane.depth() == 0 {
		e.env.Send(to, msg)
		return
	}
	if p.capture != nil {
		p.capture.offer(msg)
	}
	p.lane.begin(spanSend)
	e.env.Send(to, msg)
	p.lane.end()
}

// dirProxy times every call into the directory the node was given.
type dirProxy struct {
	d core.Directory
	p *nodeProxy
}

var _ core.Directory = (*dirProxy)(nil)

func (d *dirProxy) timed() bool {
	if d.p.lane.depth() == 0 {
		return false
	}
	d.p.lane.begin(spanDir)
	return true
}

func (d *dirProxy) done(t bool) {
	if t {
		d.p.lane.end()
	}
}

func (d *dirProxy) Owner(attr string) (sim.NodeID, bool) {
	t := d.timed()
	id, ok := d.d.Owner(attr)
	d.done(t)
	return id, ok
}

func (d *dirProxy) ClaimOwner(attr string, node sim.NodeID) sim.NodeID {
	t := d.timed()
	id := d.d.ClaimOwner(attr, node)
	d.done(t)
	return id
}

func (d *dirProxy) ReplaceOwner(attr string, node sim.NodeID) {
	t := d.timed()
	d.d.ReplaceOwner(attr, node)
	d.done(t)
}

func (d *dirProxy) AddContact(attr string, node sim.NodeID) {
	t := d.timed()
	d.d.AddContact(attr, node)
	d.done(t)
}

func (d *dirProxy) DropContact(attr string, node sim.NodeID) {
	t := d.timed()
	d.d.DropContact(attr, node)
	d.done(t)
}

func (d *dirProxy) Contact(attr string, rng *rand.Rand) (sim.NodeID, bool) {
	t := d.timed()
	id, ok := d.d.Contact(attr, rng)
	d.done(t)
	return id, ok
}

// msgSampler keeps every nth message a node sends, for the wire replay,
// while the budget it shares with the other nodes' samplers lasts.
type msgSampler struct {
	every, seen int64
	left        *atomic.Int64
	msgs        []any
}

func (s *msgSampler) offer(msg any) {
	s.seen++
	if s.seen%s.every == 0 && s.left.Add(-1) >= 0 {
		s.msgs = append(s.msgs, msg)
	}
}

func newBudget(n int64) *atomic.Int64 {
	b := new(atomic.Int64)
	b.Store(n)
	return b
}
