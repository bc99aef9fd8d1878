// Package sim provides the cycle-based deterministic simulation substrate
// on which the DPS evaluation runs, mirroring the paper's own event-based,
// cycle-driven simulator (§5.2 "The simulation is cycle based").
//
// The package hosts two things:
//
//   - the runtime *contract* between a protocol node and whatever engine
//     drives it (Env, Process, NodeID) — the live goroutine runtime in
//     internal/livenet and the TCP transport in internal/tcpnet implement
//     the same contract, so protocol code is engine-agnostic ("sans-IO").
//     Engines deliver opaque payloads; typing and routing happen inside
//     the node, in internal/core's kernel dispatch table, so an engine
//     never inspects message contents (tcpnet only re-encodes them
//     through the core wire codec);
//   - the cycle Engine itself: synchronous steps, per-hop latency of one
//     step (configurable), optional message loss, crash injection, and
//     deterministic execution for a given seed.
//
// Determinism: nodes are processed in ascending NodeID order within a
// step, message queues preserve send order, each node owns a private
// rand.Rand stream derived from the engine seed, and the engine never
// consults wall-clock time.
//
// # Parallel execution
//
// Setting Config.Workers above one activates the sharded parallel step
// executor (see parallel.go): nodes are partitioned across a worker pool
// by NodeID, each worker processes its shard's deliveries and ticks, and
// outbound messages are buffered per processing unit and merged back into
// the global queue in the exact order the sequential executor would have
// produced. Loss decisions and engine hooks stay on the coordinator and
// consume the same random stream as the sequential path, so a given seed
// yields bit-identical traces at every worker count — the property
// TestParallelTraceEquivalence pins. Shared services that nodes touch
// during a step (e.g. the core Directory) participate through the Service
// interface so their state observes the same step-snapshot semantics
// under any interleaving.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
)

// NodeID identifies a node in the overlay. IDs are assigned by the
// deployment (engine or application) and are unique for the lifetime of a
// run.
type NodeID int64

// Env is the runtime handle a protocol node uses to interact with the
// world: send messages, read the logical clock, and draw deterministic
// randomness. Engines hand one Env to each node at attach time.
type Env interface {
	// ID returns the node's own identifier.
	ID() NodeID
	// Now returns the current logical step.
	Now() int64
	// Rand returns the node's private deterministic random stream.
	Rand() *rand.Rand
	// Send enqueues a message to another node. Delivery happens after the
	// engine's hop latency; messages to crashed nodes vanish silently, as
	// in the paper's fail-stop model.
	Send(to NodeID, msg any)
}

// Process is a protocol node drivable by an engine.
type Process interface {
	// Attach hands the node its runtime environment. It is called exactly
	// once, before any other method.
	Attach(env Env)
	// OnMessage delivers one message sent by from.
	OnMessage(from NodeID, msg any)
	// OnTick runs once per step after message delivery, for periodic work
	// (heartbeats, gossip rounds, retries).
	OnTick()
}

// DropReason classifies why the engine discarded a message, so fault
// observers can tell protocol-relevant loss (LossRate) apart from
// structural causes (dead recipient, severed link).
type DropReason uint8

// Drop reasons.
const (
	// DropLoss: the message lost the LossRate draw.
	DropLoss DropReason = iota + 1
	// DropDead: the recipient does not exist or has crashed.
	DropDead
	// DropPartition: sender and recipient are on opposite sides of a link
	// cut or partition class split.
	DropPartition
)

// String names the reason for logs and fault reports.
func (r DropReason) String() string {
	switch r {
	case DropLoss:
		return "loss"
	case DropDead:
		return "dead"
	case DropPartition:
		return "partition"
	}
	return "unknown"
}

// Config parameterises the engine.
type Config struct {
	// Seed drives all engine randomness. Two runs with equal seeds and
	// equal call sequences produce identical executions.
	Seed int64
	// Latency is the number of steps between send and delivery. 0 means
	// the default of 1 (next step).
	Latency int64
	// LossRate is the probability that any message is dropped in flight.
	LossRate float64
	// Workers selects the step executor: 0 or 1 runs the sequential
	// executor; W > 1 runs the sharded parallel executor on W goroutines;
	// a negative value uses one worker per CPU. Traces are bit-identical
	// across worker counts for a given seed.
	Workers int
	// OnSend, if set, observes every accepted send.
	OnSend func(from, to NodeID, msg any)
	// OnDeliver, if set, observes every delivery to a live node.
	OnDeliver func(from, to NodeID, msg any)
	// OnDrop, if set, observes every discarded message with the typed
	// reason: LossRate draws, dead recipients, or partition cuts.
	OnDrop func(from, to NodeID, msg any, reason DropReason)
}

type envelope struct {
	from, to NodeID
	msg      any
}

// slot is one node's place in the engine, and the Env the engine hands
// that node: the process attached under the id, whether it is alive, and
// its private random stream. A restart swaps the process and keeps the
// slot.
type slot struct {
	engine *Engine
	id     NodeID
	proc   Process
	alive  bool
	rng    *rand.Rand
	// sink, when non-nil, redirects sends into the parallel executor's
	// per-unit buffer instead of the global queue. It is set by the worker
	// that owns this node immediately before invoking the node's handler
	// and cleared right after, so only one goroutine ever touches it.
	sink *[]envelope
}

// Service is a shared component that participates in the engine's step
// lifecycle. Engines call BeginStep before any node processes and EndStep
// after the last tick of the step. Deployments register services whose
// state protocol nodes read and write mid-step (e.g. the attribute
// directory): by snapshotting reads at BeginStep and committing writes
// deterministically at EndStep, a service stays execution-order
// independent, which the parallel executor requires for bit-identical
// traces.
type Service interface {
	// BeginStep announces that node processing for the given step starts.
	BeginStep(step int64)
	// EndStep announces that node processing for the given step finished.
	EndStep(step int64)
}

// Engine is the cycle-based simulator.
type Engine struct {
	cfg   Config
	step  int64
	slots map[NodeID]*slot
	order []*slot // ascending id; includes dead nodes (skipped)
	dirty bool    // order needs re-sorting
	// queue holds the in-flight batches in a ring of Latency+1 buckets:
	// the batch due at step t sits in queue[t%len(queue)]. Every send is
	// due Latency steps ahead, so the bucket a step delivers from is
	// never the one its sends append to, and a drained bucket is reused
	// for the batch due Latency+1 steps later.
	queue    [][]envelope
	rng      *rand.Rand
	alive    int
	services []Service

	// Topology is the fault topology; accept checks its nil maps before
	// consulting it, so the fault-free hot path pays two nil checks.
	Topology

	// Parallel-executor scratch, reused across steps (see parallel.go).
	par *parScratch
}

// NewEngine returns an engine with no nodes at step 0.
func NewEngine(cfg Config) *Engine {
	if cfg.Latency <= 0 {
		cfg.Latency = 1
	}
	return &Engine{
		cfg:   cfg,
		slots: make(map[NodeID]*slot),
		queue: make([][]envelope, cfg.Latency+1),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Now returns the current step.
func (e *Engine) Now() int64 { return e.step }

// linkKey identifies one bidirectional link, normalized low-high.
type linkKey struct{ a, b NodeID }

func mkLink(a, b NodeID) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// Topology is a partition topology: severed links and partition classes.
// The zero value is all-clear. The cycle engine embeds one; the live
// engines' fault plane (internal/faultplane) holds one under its mutex,
// so every runtime shares one definition of which pairs are linked. A
// Topology is not safe for concurrent use.
type Topology struct {
	// cuts holds severed links under normalized (low, high) keys; classes
	// holds non-zero partition classes — messages crossing class
	// boundaries drop. Both start nil and stay nil until a fault injector
	// touches them, so an all-clear check is two nil checks.
	cuts    map[linkKey]struct{}
	classes map[NodeID]int
}

// CutLink severs the bidirectional link between a and b: messages in
// either direction drop with DropPartition until HealLink. On the cycle
// engine, safe to call between steps.
func (t *Topology) CutLink(a, b NodeID) {
	if t.cuts == nil {
		t.cuts = make(map[linkKey]struct{})
	}
	t.cuts[mkLink(a, b)] = struct{}{}
}

// HealLink restores a previously cut link. Healing an intact link is a
// no-op.
func (t *Topology) HealLink(a, b NodeID) {
	delete(t.cuts, mkLink(a, b))
}

// SetPartitionClass assigns a node to a partition class. Messages whose
// endpoints sit in different classes drop with DropPartition; the default
// class is 0, so partitioning a population in two takes one call per node
// of the minority side. On the cycle engine, safe to call between steps.
func (t *Topology) SetPartitionClass(id NodeID, class int) {
	if class == 0 {
		delete(t.classes, id)
		return
	}
	if t.classes == nil {
		t.classes = make(map[NodeID]int)
	}
	t.classes[id] = class
}

// ClearPartitions heals every link cut and resets all partition classes.
func (t *Topology) ClearPartitions() {
	t.cuts = nil
	t.classes = nil
}

// Empty reports whether no link is cut and no node sits outside class 0.
func (t *Topology) Empty() bool {
	return len(t.cuts) == 0 && len(t.classes) == 0
}

// Linked reports whether a message from a to b would pass the partition
// topology (it may still be lost to a loss draw or a dead recipient).
func (t *Topology) Linked(a, b NodeID) bool {
	if t.cuts != nil {
		if _, cut := t.cuts[mkLink(a, b)]; cut {
			return false
		}
	}
	if t.classes != nil && t.classes[a] != t.classes[b] {
		return false
	}
	return true
}

// SetLossRate adjusts the uniform message loss probability mid-run (loss
// windows). Safe to call between steps.
func (e *Engine) SetLossRate(rate float64) { e.cfg.LossRate = rate }

// LossRate reports the current uniform loss probability.
func (e *Engine) LossRate() float64 { return e.cfg.LossRate }

// AddService registers a step-lifecycle participant. Services are
// notified in registration order at the start and end of every step.
func (e *Engine) AddService(s Service) { e.services = append(e.services, s) }

// SetWorkers adjusts the executor after construction: 0 or 1 selects the
// sequential path, W > 1 the parallel path with W workers, negative one
// worker per CPU. Safe to call between steps only.
func (e *Engine) SetWorkers(w int) { e.cfg.Workers = w }

// Workers reports the resolved worker count the next Step will use.
func (e *Engine) Workers() int { return e.resolveWorkers() }

// Add attaches a process under the given id. Adding a duplicate id is a
// programming error and returns one.
func (e *Engine) Add(id NodeID, p Process) error {
	if _, ok := e.slots[id]; ok {
		return fmt.Errorf("sim: node %d already exists", id)
	}
	const mix = int64(-0x61C8864680B583EB) // golden-ratio mixer (2^64/phi as int64)
	s := &slot{engine: e, id: id, proc: p, alive: true,
		rng: rand.New(rand.NewSource(e.cfg.Seed ^ (int64(id)+1)*mix))}
	e.slots[id] = s
	if n := len(e.order); n > 0 && e.order[n-1].id > id {
		e.dirty = true
	}
	e.order = append(e.order, s)
	e.alive++
	p.Attach(s)
	return nil
}

// Kill crashes a node: it stops receiving and ticking immediately.
// In-flight messages it already sent still deliver (they are on the wire).
// Killing an unknown or dead node is a no-op so that failure injectors can
// fire blindly.
func (e *Engine) Kill(id NodeID) {
	if s, ok := e.slots[id]; ok && s.alive {
		s.alive = false
		e.alive--
	}
}

// Restart revives a crashed node under its old id with a fresh process —
// the fail-recovery model: the incarnation's protocol state is gone, but
// the identity (and its deterministic random stream) persists. Messages
// already in flight to the id deliver to the new incarnation, like a
// datagram crossing a reboot. Restarting a live or unknown node is an
// error: restarts target observed crashes, never blind ids.
func (e *Engine) Restart(id NodeID, p Process) error {
	s, ok := e.slots[id]
	if !ok {
		return fmt.Errorf("sim: cannot restart unknown node %d", id)
	}
	if s.alive {
		return fmt.Errorf("sim: cannot restart live node %d", id)
	}
	s.proc = p
	s.alive = true
	e.alive++
	p.Attach(s)
	return nil
}

// Alive reports whether a node exists and has not crashed.
func (e *Engine) Alive(id NodeID) bool {
	s, ok := e.slots[id]
	return ok && s.alive
}

// AliveCount returns the number of live nodes.
func (e *Engine) AliveCount() int { return e.alive }

// AliveIDs returns the sorted ids of live nodes.
func (e *Engine) AliveIDs() []NodeID {
	e.sortOrder()
	out := make([]NodeID, 0, e.alive)
	for _, s := range e.order {
		if s.alive {
			out = append(out, s.id)
		}
	}
	return out
}

// Process returns the process attached under id, or nil.
func (e *Engine) Process(id NodeID) Process {
	if s, ok := e.slots[id]; ok {
		return s.proc
	}
	return nil
}

// Env returns the runtime handle of the node, usable by test drivers to
// invoke protocol operations between steps.
func (e *Engine) Env(id NodeID) Env {
	if s, ok := e.slots[id]; ok {
		return s
	}
	return nil
}

// Step advances the simulation one cycle: deliver everything scheduled for
// the new step, then tick every live node in id order. With Workers > 1
// the processing fans out across the worker pool (see parallel.go) while
// preserving the sequential executor's trace bit-for-bit.
func (e *Engine) Step() {
	e.step++
	for _, s := range e.services {
		s.BeginStep(e.step)
	}
	bucket := e.step % int64(len(e.queue))
	batch := e.queue[bucket]
	e.sortOrder()
	if w := e.resolveWorkers(); w > 1 {
		e.stepParallel(batch, w)
	} else {
		e.stepSequential(batch)
	}
	// Zero the drained batch so its payloads are not pinned until the
	// bucket refills; keep the capacity for the batch due next in it.
	clear(batch)
	e.queue[bucket] = batch[:0]
	for _, s := range e.services {
		s.EndStep(e.step)
	}
}

// accept applies the per-envelope delivery gate shared by both
// executors: dead recipients drop, then the partition topology (no
// randomness), then the loss draw (the engine stream's only mid-step
// consumption — draw order is part of the determinism contract), then
// the OnDeliver hook. It returns the recipient's slot when the message
// should be handed to the node. Both executors must route every envelope
// through this single helper, or their e.rng consumption and drop
// decisions drift apart and the bit-identical-trace contract breaks.
func (e *Engine) accept(env envelope) (*slot, bool) {
	s, ok := e.slots[env.to]
	if !ok || !s.alive {
		if e.cfg.OnDrop != nil {
			e.cfg.OnDrop(env.from, env.to, env.msg, DropDead)
		}
		return nil, false
	}
	if (e.cuts != nil || e.classes != nil) && !e.Linked(env.from, env.to) {
		if e.cfg.OnDrop != nil {
			e.cfg.OnDrop(env.from, env.to, env.msg, DropPartition)
		}
		return nil, false
	}
	if e.cfg.LossRate > 0 && e.rng.Float64() < e.cfg.LossRate {
		if e.cfg.OnDrop != nil {
			e.cfg.OnDrop(env.from, env.to, env.msg, DropLoss)
		}
		return nil, false
	}
	if e.cfg.OnDeliver != nil {
		e.cfg.OnDeliver(env.from, env.to, env.msg)
	}
	return s, true
}

// stepSequential is the single-threaded executor: deliveries in batch
// order, then ticks in ascending NodeID order.
func (e *Engine) stepSequential(batch []envelope) {
	for _, env := range batch {
		if s, ok := e.accept(env); ok {
			s.proc.OnMessage(env.from, env.msg)
		}
	}
	for _, s := range e.order {
		if s.alive {
			s.proc.OnTick()
		}
	}
}

// Run advances n steps.
func (e *Engine) Run(n int) {
	for i := 0; i < n; i++ {
		e.Step()
	}
}

func (e *Engine) sortOrder() {
	if !e.dirty {
		return
	}
	sort.Slice(e.order, func(i, j int) bool { return e.order[i].id < e.order[j].id })
	e.dirty = false
}

// dueBucket returns the queue bucket of the batch this step's sends join.
func (e *Engine) dueBucket() *[]envelope {
	return &e.queue[(e.step+e.cfg.Latency)%int64(len(e.queue))]
}

var _ Env = (*slot)(nil)

// ID implements Env.
func (s *slot) ID() NodeID { return s.id }

// Now implements Env.
func (s *slot) Now() int64 { return s.engine.step }

// Rand implements Env.
func (s *slot) Rand() *rand.Rand { return s.rng }

// Send implements Env.
func (s *slot) Send(to NodeID, m any) {
	env := envelope{from: s.id, to: to, msg: m}
	if s.sink != nil {
		// Mid-step under the parallel executor: the sender is live by
		// construction (dead nodes are never processed), and the OnSend
		// hook fires at merge time on the coordinator.
		*s.sink = append(*s.sink, env)
		return
	}
	if !s.alive {
		return // dead nodes cannot speak
	}
	e := s.engine
	if e.cfg.OnSend != nil {
		e.cfg.OnSend(env.from, to, m)
	}
	q := e.dueBucket()
	*q = append(*q, env)
}
