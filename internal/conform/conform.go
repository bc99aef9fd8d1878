// Package conform is the cross-engine conformance harness: it replays
// the scripted chaos scenarios of internal/chaos — crash bursts,
// same-identity restarts, partitions, loss windows, churn — against all
// three DPS engines and judges them with one oracle.
//
// The three engines are the deterministic cycle simulator (internal/sim,
// the reference), the live goroutine runtime (internal/livenet) and the
// real-TCP engine (internal/tcpnet). The protocol code in internal/core
// is engine-agnostic by construction (sans-IO against sim.Env); this
// package tests that the *self-healing claims* survive the move from a
// lockstep scheduler to an asynchronous adversary, in the spirit of
// Feldmann et al.'s self-stabilizing supervised pub/sub: a stabilization
// proof on a synchronous simulator says nothing until the same faults hit
// the runtime users actually deploy.
//
// One conformance run is scenario × engine:
//
//   - the same fault timeline materialises on every engine: the injector
//     draws victims from its own seeded stream over sorted live ids, and
//     every engine exposes the same fault primitives (kill, restart under
//     the old identity, link cuts, partition classes, loss windows)
//     through the FaultTarget surface;
//   - the same workload drives every engine: an identical subscription
//     plan, identical churn draws, identical tracked events from
//     identical publishers;
//   - one oracle judges every engine: the structural invariant checker of
//     internal/chaos sweeps quiesce-window snapshots (live nodes cannot
//     be paused, so each snapshot is collected atomically per peer on the
//     peer's own goroutine while the runner injects no workload), with
//     time-to-repair measured in wall-clock ticks; and the differential
//     oracle asserts that each live engine's delivered-event *sets* (not
//     orders — asynchronous engines have no global order) agree with the
//     cycle-engine reference within a bounded loss margin, with zero
//     tolerance for false deliveries (an event delivered to a node whose
//     subscriptions never matched it).
//
// A disagreement here is not noise to tune away: the fault topology is
// exact on every engine, so a live engine that fails to converge to a
// legal configuration, or systematically misses deliveries the reference
// makes, has a real asynchrony bug the cycle engine cannot show.
package conform

import (
	"time"

	"github.com/dps-overlay/dps/internal/chaos"
	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
)

// FaultTarget is the engine-level fault surface a conformance engine
// exposes; it is exactly the surface the chaos injector drives, shared
// with the cycle engine. (The alias keeps one definition: sim.Engine,
// livenet.Hub and the tcp harness all satisfy it.)
type FaultTarget = chaos.FaultSurface

// Engine is one runtime under conformance test. Implementations wrap the
// cycle simulator, the livenet hub, or a tcpnet deployment; the runner
// drives every method from a single goroutine, so implementations only
// need internal locking where their own background goroutines (peers,
// transports) touch shared state.
type Engine interface {
	FaultTarget

	// Name identifies the engine in reports: "sim", "live" or "tcp".
	Name() string

	// AwaitStep blocks until the engine's logical clock reaches step: the
	// cycle engine advances itself by stepping, live engines wait on
	// their wall-clock tickers.
	AwaitStep(step int64)

	// AddNode spawns one fresh protocol node and returns its id. Ids are
	// sequential from 1, so identical call sequences yield identical id
	// assignments on every engine — the property the cross-engine fault
	// determinism rests on.
	AddNode() sim.NodeID

	// Subscribe registers a subscription at a live node (on the node's
	// own goroutine for live engines) and records it as durable: a later
	// Restart of the identity re-issues it.
	Subscribe(id sim.NodeID, sub filter.Subscription) error

	// Publish injects a tracked event at a live node.
	Publish(id sim.NodeID, ev core.EventID, event filter.Event) error

	// PublishMany injects a run of tracked events at one live node in a
	// single scheduling round (one Do on the live engines) — the
	// throughput experiment's bulk path. evs and events are parallel.
	PublishMany(id sim.NodeID, evs []core.EventID, events []filter.Event) error

	// Restart revives a crashed identity with a fresh protocol instance
	// re-issuing its durable subscriptions (chaos.Population).
	Restart(id sim.NodeID)
	// Join adds one fresh subscriber with the population's per-node
	// subscription count (chaos.Population).
	Join() sim.NodeID
	// Leave withdraws all of a node's subscriptions gracefully
	// (chaos.Population).
	Leave(id sim.NodeID)

	// StructuralSnapshot returns deep-copied membership snapshots of one
	// live node — the quiesce-window read feeding the invariant checker.
	// A node that crashed between AliveIDs and this call returns nil.
	StructuralSnapshot(id sim.NodeID) []core.MembershipSnapshot

	// Corrupt applies a structural corruption op to one live node
	// (chaos.Corruptor), on the node's own goroutine for live engines.
	// Returns false when the node is dead or ineligible for the op.
	Corrupt(id sim.NodeID, op core.CorruptionOp) bool

	// TreeOwner reports the directory's current owner of an attribute
	// tree (chaos.Target).
	TreeOwner(attr string) (sim.NodeID, bool)

	// Stats reports the engine's drop counters for the run record.
	Stats() EngineStats

	// Close tears the engine down; the engine is unusable afterwards.
	Close()
}

// Every conformance engine is a chaos.Corruptor: the injector discovers
// the corruption surface on the engine itself, so corruption scenarios
// run on all three runtimes.
var _ chaos.Corruptor = Engine(nil)

// EngineStats are the per-engine drop counters reported with each run.
type EngineStats struct {
	// InboxDropped counts messages lost to inbox overflow (live engines'
	// back-pressure-as-loss) or, on the cycle engine, to the LossRate
	// draw.
	InboxDropped int64 `json:"inbox_dropped"`
	// FaultLoss counts messages eaten by an injected loss window.
	FaultLoss int64 `json:"fault_loss"`
	// FaultPartition counts messages eaten by cuts or partition classes.
	FaultPartition int64 `json:"fault_partition"`
}

// Engine names.
const (
	EngineSim  = "sim"
	EngineLive = "live"
	EngineTCP  = "tcp"
)

// EngineNames lists the three engines in reference-first order.
func EngineNames() []string { return []string{EngineSim, EngineLive, EngineTCP} }

// Options parameterise a conformance run.
type Options struct {
	// Seed drives everything deterministic: the subscription plan, the
	// fault timeline, publisher draws, and the cycle engine itself.
	Seed int64 `json:"seed"`
	// Nodes is the initial population; SubsPerNode its subscriptions
	// each.
	Nodes       int `json:"nodes"`
	SubsPerNode int `json:"subs_per_node"`
	// EventEvery publishes one tracked event every N steps of the fault
	// phase (0 disables publishing).
	EventEvery int `json:"event_every"`
	// CheckEvery is the invariant sweep period in steps.
	CheckEvery int64 `json:"check_every"`
	// Scenarios names the chaos presets to run; empty runs the suite.
	Scenarios []string `json:"scenarios,omitempty"`
	// Engines names the engines to run; empty runs all three. The sim
	// reference always runs (the differential oracle needs it) and is
	// reported even when not requested.
	Engines []string `json:"engines,omitempty"`
	// TickEvery is the wall-clock duration of one logical step on the
	// live engines. Defaults to 2ms — fast enough for CI, slow enough
	// that a loaded machine still ticks every peer.
	TickEvery time.Duration `json:"tick_every_ns"`
	// ConvergeSlack multiplies a scenario's convergence window on the
	// asynchronous engines (their repairs pay real scheduling delays the
	// lockstep engine never sees). Defaults to 3.
	ConvergeSlack float64 `json:"converge_slack"`
	// LossMargin bounds how far a live engine's delivered sets may fall
	// short of the reference's and still pass the differential oracle: on
	// settled events (see DiffResult) the engine may miss at most this
	// fraction of the reference's delivered pairs, and its overall
	// delivery ratio may trail the reference's by at most this much.
	// Defaults to 0.12 — above the boundary-event jitter partition merges
	// show across engines, far below the divergence a systematic
	// asynchrony bug produces (false deliveries stay zero-tolerance).
	LossMargin float64 `json:"loss_margin"`
	// Workers is the cycle engine's worker count (0/1 sequential).
	Workers int `json:"workers,omitempty"`
	// Cover runs every node with the subscription-covering layer
	// (core.Config.CoverRouting): included filters ride on wider routed
	// entries instead of groups of their own. The Cover dimension checks
	// that compaction changes routing state only — deliveries, repairs
	// and the structural invariants must hold exactly as without it.
	Cover bool `json:"cover,omitempty"`
}

// DefaultOptions returns a population sized so the full matrix stays
// CI-viable while every scenario still exercises multi-level trees on
// every engine.
func DefaultOptions() Options {
	return Options{
		Seed:          1,
		Nodes:         24,
		SubsPerNode:   2,
		EventEvery:    10,
		CheckEvery:    10,
		TickEvery:     2 * time.Millisecond,
		ConvergeSlack: 3,
		LossMargin:    0.12,
	}
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.Nodes <= 0 {
		o.Nodes = d.Nodes
	}
	if o.SubsPerNode <= 0 {
		o.SubsPerNode = d.SubsPerNode
	}
	if o.CheckEvery <= 0 {
		o.CheckEvery = d.CheckEvery
	}
	if o.TickEvery <= 0 {
		o.TickEvery = d.TickEvery
	}
	if o.ConvergeSlack <= 0 {
		o.ConvergeSlack = d.ConvergeSlack
	}
	if o.LossMargin <= 0 {
		o.LossMargin = d.LossMargin
	}
	if len(o.Engines) == 0 {
		o.Engines = EngineNames()
	}
	return o
}

// nodeConfig is the protocol variant every conformance engine runs: the
// paper's default (root-based traversal, leader communication) — the
// same variant the chaos suite validates on the cycle engine, so
// cross-engine differences isolate the runtime, not the protocol.
func nodeConfig(dir core.Directory, cover bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.Directory = dir
	cfg.CoverRouting = cover
	return cfg
}
