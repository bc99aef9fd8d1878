// Package livenet is the live, asynchronous runtime for DPS peers: each
// peer runs in its own goroutine with a channel inbox, wall-clock ticks
// drive the protocol's periodic work, and the shared Hub routes messages
// between peers. It implements the same sim.Env contract as the cycle
// engine, so the protocol code in internal/core runs unchanged.
//
// Semantics differ from the cycle engine exactly where a real network
// differs from a synchronous simulator: delivery is asynchronous, ordering
// holds only per sender-receiver pair, and a full inbox drops messages
// (back-pressure as loss, matching the protocol's tolerance for lossy
// links). Message payloads stay in-memory Go values end to end — the hub
// routes them opaquely and the receiving node's kernel dispatch table
// types them; only the TCP transport (internal/tcpnet) serialises, via
// the core wire codec.
package livenet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dps-overlay/dps/internal/faultplane"
	"github.com/dps-overlay/dps/internal/sim"
)

// Config parameterises the hub.
type Config struct {
	// TickEvery is the wall-clock duration of one logical step. Protocol
	// timeouts (heartbeats, grace periods) are expressed in steps.
	// Defaults to 10ms.
	TickEvery time.Duration
	// InboxSize is each peer's buffered inbox; a full inbox drops
	// messages. Defaults to 4096, eight times tcpnet's default: with no
	// socket between peers a sender fills its target's inbox at memory
	// speed, and the CONFORM_NIGHTLY throughput storm drives it to
	// depths of 988-1160.
	InboxSize int
	// Seed derives the per-peer deterministic random streams.
	Seed int64
}

// Hub connects live peers and owns the logical clock.
type Hub struct {
	cfg   Config
	clock atomic.Int64

	mu    sync.Mutex
	peers map[sim.NodeID]*Peer
	// incarnations counts lives per identity so a restarted peer draws a
	// fresh random stream instead of replaying its first life's draws.
	incarnations map[sim.NodeID]int64
	closed       bool

	// faults is the injectable fault topology (see faults.go and
	// internal/faultplane); an all-clear plane passes everything at the
	// cost of one atomic load per message.
	faults *faultplane.Plane

	stopTicker chan struct{}
	tickerDone chan struct{}
	wg         sync.WaitGroup
}

// NewHub starts the hub clock and returns an empty hub.
func NewHub(cfg Config) *Hub {
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 10 * time.Millisecond
	}
	if cfg.InboxSize <= 0 {
		cfg.InboxSize = 4096
	}
	h := &Hub{
		cfg:          cfg,
		peers:        make(map[sim.NodeID]*Peer),
		incarnations: make(map[sim.NodeID]int64),
		stopTicker:   make(chan struct{}),
		tickerDone:   make(chan struct{}),
	}
	h.faults = faultplane.New(cfg.Seed ^ 0x10553)
	go h.runClock()
	return h
}

func (h *Hub) runClock() {
	defer close(h.tickerDone)
	ticker := time.NewTicker(h.cfg.TickEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			h.clock.Add(1)
		case <-h.stopTicker:
			return
		}
	}
}

// Now returns the current logical step.
func (h *Hub) Now() int64 { return h.clock.Load() }

// inboxItem is one unit of peer work: a message or a control command.
type inboxItem struct {
	from sim.NodeID
	msg  any
	cmd  func() // command executed in the peer goroutine; msg is nil
}

// Peer is one live DPS node. Protocol handlers run exclusively in the
// peer's goroutine; external calls are funneled through Do.
type Peer struct {
	id    sim.NodeID
	hub   *Hub
	proc  sim.Process
	inbox chan inboxItem
	rng   *rand.Rand
	stop  chan struct{}
	done  chan struct{}

	dropped atomic.Int64
}

var _ sim.Env = (*peerEnv)(nil)

// peerEnv adapts a Peer to the sim.Env contract.
type peerEnv struct{ p *Peer }

func (e *peerEnv) ID() sim.NodeID   { return e.p.id }
func (e *peerEnv) Now() int64       { return e.p.hub.Now() }
func (e *peerEnv) Rand() *rand.Rand { return e.p.rng }
func (e *peerEnv) Send(to sim.NodeID, msg any) {
	e.p.hub.route(e.p.id, to, msg)
}

// AddPeer attaches a process as a new live peer.
func (h *Hub) AddPeer(id sim.NodeID, proc sim.Process) (*Peer, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, errors.New("livenet: hub is closed")
	}
	if _, dup := h.peers[id]; dup {
		return nil, fmt.Errorf("livenet: peer %d already exists", id)
	}
	const mix = int64(-0x61C8864680B583EB)
	incarnation := h.incarnations[id]
	h.incarnations[id] = incarnation + 1
	p := &Peer{
		id:    id,
		hub:   h,
		proc:  proc,
		inbox: make(chan inboxItem, h.cfg.InboxSize),
		rng:   rand.New(rand.NewSource(h.cfg.Seed ^ (int64(id)+1)*mix ^ incarnation<<7)),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	h.peers[id] = p
	proc.Attach(&peerEnv{p: p})
	h.wg.Add(1)
	go p.run()
	return p, nil
}

// route delivers a message to the target inbox, dropping on overflow,
// unknown/stopped targets, or a fault-plane verdict (cut link, partition
// class boundary, loss-window draw — see faults.go).
func (h *Hub) route(from, to sim.NodeID, msg any) {
	h.mu.Lock()
	target, ok := h.peers[to]
	h.mu.Unlock()
	if !ok {
		return
	}
	if h.faults.Drop(from, to) != 0 {
		return
	}
	select {
	case target.inbox <- inboxItem{from: from, msg: msg}:
	default:
		target.dropped.Add(1)
	}
}

// run is the peer goroutine: it interleaves message handling, commands and
// periodic ticks.
func (p *Peer) run() {
	defer p.hub.wg.Done()
	defer close(p.done)
	ticker := time.NewTicker(p.hub.cfg.TickEvery)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case item := <-p.inbox:
			if item.cmd != nil {
				item.cmd()
				continue
			}
			p.proc.OnMessage(item.from, item.msg)
		case <-ticker.C:
			p.proc.OnTick()
		}
	}
}

// Do runs fn inside the peer goroutine and waits for it — the only safe
// way to touch protocol state from outside (core nodes are not
// thread-safe by design; each is single-goroutine).
func (p *Peer) Do(fn func()) error {
	doneCh := make(chan struct{})
	item := inboxItem{cmd: func() {
		defer close(doneCh)
		fn()
	}}
	select {
	case p.inbox <- item:
	case <-p.stop:
		return errors.New("livenet: peer stopped")
	}
	select {
	case <-doneCh:
		return nil
	case <-p.done:
		return errors.New("livenet: peer stopped")
	}
}

// ID returns the peer id.
func (p *Peer) ID() sim.NodeID { return p.id }

// Dropped returns how many messages overflowed this peer's inbox.
func (p *Peer) Dropped() int64 { return p.dropped.Load() }

// Crash stops the peer abruptly: no goodbye, messages to it vanish —
// exactly a fail-stop crash for self-healing demos.
func (h *Hub) Crash(id sim.NodeID) {
	h.mu.Lock()
	p, ok := h.peers[id]
	if ok {
		delete(h.peers, id)
	}
	h.mu.Unlock()
	if ok {
		close(p.stop)
		<-p.done
	}
}

// Close stops every peer and the clock. It is idempotent.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	peers := make([]*Peer, 0, len(h.peers))
	for _, p := range h.peers {
		peers = append(peers, p)
	}
	h.peers = make(map[sim.NodeID]*Peer)
	h.mu.Unlock()
	for _, p := range peers {
		close(p.stop)
	}
	h.wg.Wait()
	close(h.stopTicker)
	<-h.tickerDone
}
