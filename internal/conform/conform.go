// Package conform is the chaos runner and cross-engine conformance
// harness: it replays the scripted chaos scenarios of internal/chaos —
// crash bursts, same-identity restarts, partitions, loss windows, churn,
// structural corruption — against any of the three DPS engines and
// judges them with one oracle. Its Engine is also the substrate every
// paper experiment of internal/experiments runs on (NewSimEngine), so
// the figures come from the same runs the checker can judge. Run with Engines: []string{"sim"} is the
// cycle-engine chaos suite; selecting a live engine adds it alongside
// the sim reference and arms the differential oracle. Options.Config
// picks the protocol variant every engine runs, and Options.Custom adds
// ad-hoc scenarios (fuzz and property harnesses) to the presets.
//
// The three engines are the deterministic cycle simulator (internal/sim,
// the reference), the live goroutine runtime (internal/livenet) and the
// real-TCP engine (internal/tcpnet). They are one Engine over three
// runtimes: the population, the oracle's recorder and every
// protocol-facing operation are shared, and each runtime supplies only
// how a node is hosted under an id and reached, liveness, the clock and
// teardown. The protocol code in internal/core
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
//     every runtime exposes the same fault primitives (kill, restart
//     under the old identity, link cuts, partition classes, loss windows)
//     through chaos.FaultSurface;
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
// A run passes when two consecutive sweeps are clean inside the
// scenario's convergence window and every fault was repaired inside its
// MaxTTR; on the live engines both are widened by ConvergeSlack.
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

// EngineStats are the per-engine drop counters reported with each run.
type EngineStats struct {
	// InboxDropped counts messages lost to inbox overflow on the live
	// engines (back-pressure as loss), summed over every incarnation of
	// every node. The cycle engine has no inboxes and reports 0; its
	// loss draws count under FaultLoss.
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
	// Scenarios names the chaos presets to run; empty runs the suite
	// unless Custom is set.
	Scenarios []string `json:"scenarios,omitempty"`
	// Custom appends ad-hoc scenarios (fuzz and property harnesses) to
	// the selected presets. Each must pass chaos.Scenario.Validate.
	Custom []chaos.Scenario `json:"custom,omitempty"`
	// Config is the protocol variant every engine runs; the zero value
	// is the paper's default (root-based traversal, leader
	// communication).
	Config ConfigSpec `json:"config"`
	// Engines names the engines to run; empty runs all three. The sim
	// reference always runs (the differential oracle needs it) and is
	// reported even when not requested.
	Engines []string `json:"engines,omitempty"`
	// TickEvery is the wall-clock duration of one logical step on the
	// live engines. Defaults to 2ms — fast enough for CI, slow enough
	// that a loaded machine still ticks every peer.
	TickEvery time.Duration `json:"tick_every_ns"`
	// ConvergeSlack multiplies a scenario's convergence window and repair
	// bound on the asynchronous engines (their repairs pay real
	// scheduling delays the lockstep engine never sees); the sim
	// reference is judged on the scenario's own numbers. Defaults to 3.
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
		Config:        ConfigSpec{Name: "leader root", Traversal: core.RootBased, Comm: core.LeaderBased},
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
	if o.Config == (ConfigSpec{}) {
		o.Config = d.Config
	}
	return o
}
