// Package faultplane is the shared fault-topology model of the live
// engines: link cuts and partition classes — the cycle engine's own
// sim.Topology, held under a mutex — and loss windows, so one chaos
// scenario replays against any runtime (see chaos.FaultSurface and
// internal/conform).
// The goroutine hub (internal/livenet) consults one plane in its router;
// every TCP transport of a deployment (internal/tcpnet) shares one on
// its receive path. Keeping a single implementation means the partition
// and loss semantics the cross-engine differential oracle depends on
// cannot drift between runtimes.
package faultplane

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"github.com/dps-overlay/dps/internal/sim"
)

// Plane is one deployment's injectable fault topology. All methods are
// safe for concurrent use from engine goroutines and a fault injector.
// The fault-free hot path pays a single atomic load: the mutex and the
// loss draw are only reached while at least one fault is armed.
type Plane struct {
	// armed is true while any cut, class or loss window is active.
	armed atomic.Bool

	mu       sync.Mutex
	topo     sim.Topology
	lossRate float64
	rng      *rand.Rand

	droppedLoss      atomic.Int64
	droppedPartition atomic.Int64
}

// New returns an all-clear plane whose loss draws come from the given
// seed.
func New(seed int64) *Plane {
	return &Plane{rng: rand.New(rand.NewSource(seed ^ 0x7cb))}
}

// rearm recomputes the armed flag; callers hold p.mu.
func (p *Plane) rearm() {
	p.armed.Store(!p.topo.Empty() || p.lossRate > 0)
}

// CutLink severs the bidirectional link between a and b: messages in
// either direction drop until HealLink or ClearPartitions.
func (p *Plane) CutLink(a, b sim.NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.topo.CutLink(a, b)
	p.rearm()
}

// HealLink restores a previously cut link; healing an intact link is a
// no-op.
func (p *Plane) HealLink(a, b sim.NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.topo.HealLink(a, b)
	p.rearm()
}

// SetPartitionClass assigns a node to a partition class. Messages whose
// endpoints sit in different classes drop; the default class is 0.
func (p *Plane) SetPartitionClass(id sim.NodeID, class int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.topo.SetPartitionClass(id, class)
	p.rearm()
}

// ClearPartitions heals every link cut and resets all partition classes.
func (p *Plane) ClearPartitions() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.topo.ClearPartitions()
	p.rearm()
}

// SetLossRate adjusts the uniform message-loss probability (loss
// windows). Draws come from the plane's own seeded stream.
func (p *Plane) SetLossRate(rate float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lossRate = rate
	p.rearm()
}

// Linked reports whether a message between a and b would pass the
// current partition topology (it may still be lost to the loss rate).
func (p *Plane) Linked(a, b sim.NodeID) bool {
	if !p.armed.Load() {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.topo.Linked(a, b)
}

// Dropped reports messages the plane discarded, split by reason (loss
// draws vs partition cuts).
func (p *Plane) Dropped() (loss, partition int64) {
	return p.droppedLoss.Load(), p.droppedPartition.Load()
}

// Drop classifies one message against the fault topology: DropPartition
// for severed pairs, DropLoss for loss-window draws, 0 to deliver.
// Engines call it once per message on their enforcement path.
func (p *Plane) Drop(from, to sim.NodeID) sim.DropReason {
	if !p.armed.Load() {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.topo.Linked(from, to) {
		p.droppedPartition.Add(1)
		return sim.DropPartition
	}
	if p.lossRate > 0 && p.rng.Float64() < p.lossRate {
		p.droppedLoss.Add(1)
		return sim.DropLoss
	}
	return 0
}
