// Package dps is an embeddable implementation of DPS — the self-*
// peer-to-peer content-based publish/subscribe system of Anceaume, Datta,
// Gradinariu, Simon and Virgillito (ICDCS 2006).
//
// Subscribers self-organise into a semantic overlay: a forest of
// per-attribute trees whose vertices are groups of subscribers with
// identical attribute filters, ordered by filter inclusion. Events travel
// only through matching branches, so most nodes never see events they do
// not care about; heartbeats, co-leader promotion and view repair keep the
// overlay healthy through crashes without any broker or administrator.
//
// # Quick start
//
//	net, _ := dps.NewNetwork(dps.Options{})
//	defer net.Close()
//
//	alice, _ := net.AddPeer()
//	bob, _ := net.AddPeer()
//
//	sub, _ := dps.ParseSubscription("price>100 && price<200")
//	_ = alice.Subscribe(sub, func(ev dps.Event) {
//		fmt.Println("alice got", ev)
//	})
//
//	ev, _ := dps.ParseEvent("price=150, sym=acme")
//	_ = bob.Publish(ev)
//
// Peers run as goroutines connected by channels (internal/livenet); the
// same protocol code — three subsystems (membership, dissemination,
// self-* repair) behind internal/core's typed dispatch kernel — also
// runs on the deterministic cycle simulator that regenerates the paper's
// evaluation (cmd/dps-bench) and over TCP (internal/tcpnet, cmd/dps-node)
// using the versioned binary wire codec.
package dps

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/livenet"
	"github.com/dps-overlay/dps/internal/sim"
)

// Re-exported content-model types: subscriptions are conjunctions of
// predicates, events conjunctions of (attribute = value) assignments.
type (
	// Event is a published notification: a set of attribute assignments.
	Event = filter.Event
	// Assignment is one attribute/value pair of an event.
	Assignment = filter.Assignment
	// Value is a typed attribute value.
	Value = filter.Value
	// Predicate is one elementary constraint (attr op constant).
	Predicate = filter.Predicate
	// Subscription is a conjunction of predicates.
	Subscription = filter.Subscription
)

// Gt builds the predicate attr > c over integer values.
func Gt(attr string, c int64) Predicate { return filter.Gt(attr, c) }

// Ge builds the predicate attr ≥ c over integer values.
func Ge(attr string, c int64) Predicate { return filter.Ge(attr, c) }

// Lt builds the predicate attr < c over integer values.
func Lt(attr string, c int64) Predicate { return filter.Lt(attr, c) }

// Le builds the predicate attr ≤ c over integer values.
func Le(attr string, c int64) Predicate { return filter.Le(attr, c) }

// EqInt builds the predicate attr = v over integer values.
func EqInt(attr string, v int64) Predicate { return filter.EqInt(attr, v) }

// EqStr builds the predicate attr = s over string values.
func EqStr(attr, s string) Predicate { return filter.EqStr(attr, s) }

// HasPrefix builds the predicate "attr starts with s" (the paper's
// prefix operator on strings, written s* in the subscription syntax).
func HasPrefix(attr, s string) Predicate { return filter.Prefix(attr, s) }

// HasSuffix builds the predicate "attr ends with s" (written *s).
func HasSuffix(attr, s string) Predicate { return filter.Suffix(attr, s) }

// ContainsStr builds the predicate "attr contains s" (written *s*).
func ContainsStr(attr, s string) Predicate { return filter.Contains(attr, s) }

// IntValue wraps an integer as a typed event value.
func IntValue(v int64) Value { return filter.IntValue(v) }

// StringValue wraps a string as a typed event value.
func StringValue(s string) Value { return filter.StringValue(s) }

// NewSubscription validates and builds a subscription from predicates.
func NewSubscription(preds ...Predicate) (Subscription, error) {
	return filter.NewSubscription(preds...)
}

// NewEvent validates and builds an event from assignments.
func NewEvent(assignments ...Assignment) (Event, error) {
	return filter.NewEvent(assignments...)
}

// ParseSubscription parses "a>2 && a<20 && sym=acme*".
func ParseSubscription(s string) (Subscription, error) {
	return filter.ParseSubscription(s)
}

// ParseEvent parses "a=4, sym=acme".
func ParseEvent(s string) (Event, error) {
	return filter.ParseEvent(s)
}

// Traversal selects the tree-traversal strategy (paper §4.1).
type Traversal = core.TraversalMode

// Comm selects the group-communication strategy (paper §4.2).
type Comm = core.CommMode

// Strategy constants.
const (
	RootBased = core.RootBased
	Generic   = core.Generic

	LeaderBased = core.LeaderBased
	Epidemic    = core.Epidemic
)

// Options configures a Network. The zero value selects the paper's default
// configuration: root-based traversal with leader-based communication.
type Options struct {
	// Traversal defaults to RootBased.
	Traversal Traversal
	// Comm defaults to LeaderBased.
	Comm Comm
	// Fanout (k) and CrossFanout (k') tune epidemic redundancy; 0 keeps
	// the defaults of 1.
	Fanout      int
	CrossFanout int
	// TickEvery is the wall-clock length of one protocol step; heartbeat
	// and gossip periods are multiples of it. Defaults to 10ms.
	TickEvery time.Duration
	// Seed makes the per-peer random streams reproducible.
	Seed int64
}

// Network is an in-process DPS deployment: a set of peers connected by the
// live goroutine runtime.
type Network struct {
	opts Options
	hub  *livenet.Hub
	dir  *core.SharedDirectory

	mu     sync.Mutex
	peers  map[sim.NodeID]*Peer
	nextID sim.NodeID
	closed bool

	nextEvent atomic.Int64
}

// NewNetwork starts an empty network.
func NewNetwork(opts Options) (*Network, error) {
	if opts.Traversal == 0 {
		opts.Traversal = RootBased
	}
	if opts.Comm == 0 {
		opts.Comm = LeaderBased
	}
	n := &Network{
		opts:  opts,
		dir:   core.NewSharedDirectory(),
		peers: make(map[sim.NodeID]*Peer),
	}
	n.hub = livenet.NewHub(livenet.Config{
		TickEvery: opts.TickEvery,
		Seed:      opts.Seed,
	})
	return n, nil
}

// AddPeer spawns a new peer on the network.
func (n *Network) AddPeer() (*Peer, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, errors.New("dps: network is closed")
	}
	cfg := core.DefaultConfig()
	// The directory hands out live contacts only: in leader mode nobody
	// suspects a crashed regular member, so it would otherwise stay a
	// tree entry point forever.
	cfg.Directory = core.LiveDirectory{Directory: n.dir, Alive: n.hub.Alive}
	cfg.Traversal = n.opts.Traversal
	cfg.Comm = n.opts.Comm
	if n.opts.Fanout > 0 {
		cfg.Fanout = n.opts.Fanout
	}
	if n.opts.CrossFanout > 0 {
		cfg.CrossFanout = n.opts.CrossFanout
	}
	node, err := core.NewNode(cfg)
	if err != nil {
		return nil, fmt.Errorf("dps: %w", err)
	}
	n.nextID++
	id := n.nextID
	p := &Peer{net: n, node: node, id: id}
	node.OnDeliverHook(func(_ core.EventID, ev filter.Event) {
		p.dispatch(ev)
	})
	lp, err := n.hub.AddPeer(id, node)
	if err != nil {
		return nil, fmt.Errorf("dps: %w", err)
	}
	p.live = lp
	n.peers[id] = p
	return p, nil
}

// Crash kills a peer abruptly (fail-stop), for churn experiments and
// demos; the overlay self-heals around it.
func (n *Network) Crash(p *Peer) {
	n.mu.Lock()
	delete(n.peers, p.id)
	n.mu.Unlock()
	n.hub.Crash(p.id)
}

// Peers returns the current number of live peers.
func (n *Network) Peers() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.peers)
}

// Close stops every peer goroutine and the network clock.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	n.hub.Close()
	return nil
}

// Peer is one DPS node on a Network: subscriber, publisher and router.
// All methods are safe for concurrent use.
type Peer struct {
	net  *Network
	node *core.Node
	live *livenet.Peer
	id   sim.NodeID

	mu       sync.Mutex
	handlers []subscriptionHandler
}

type subscriptionHandler struct {
	sub filter.Subscription
	fn  func(Event)
}

// ID returns the peer's network identifier.
func (p *Peer) ID() int64 { return int64(p.id) }

// Subscribe registers the subscription and a callback invoked for every
// matching event (the paper's Notify). The callback runs on the peer's
// goroutine; do not block in it.
func (p *Peer) Subscribe(sub Subscription, fn func(Event)) error {
	if fn == nil {
		return errors.New("dps: Subscribe needs a callback")
	}
	var err error
	doErr := p.live.Do(func() {
		err = p.node.Subscribe(sub)
	})
	if doErr != nil {
		return doErr
	}
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.handlers = append(p.handlers, subscriptionHandler{sub: sub, fn: fn})
	p.mu.Unlock()
	return nil
}

// Unsubscribe withdraws a previously registered subscription (matched by
// its canonical text form) and removes its callback.
func (p *Peer) Unsubscribe(sub Subscription) error {
	var err error
	doErr := p.live.Do(func() {
		err = p.node.Unsubscribe(sub)
	})
	if doErr != nil {
		return doErr
	}
	if err != nil {
		return err
	}
	want := sub.String()
	p.mu.Lock()
	for i, h := range p.handlers {
		if h.sub.String() == want {
			p.handlers = append(p.handlers[:i], p.handlers[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
	return nil
}

// Publish injects an event into the overlay.
func (p *Peer) Publish(ev Event) error {
	id := core.EventID(p.net.nextEvent.Add(1))<<16 | core.EventID(p.id&0xffff)
	var err error
	doErr := p.live.Do(func() {
		err = p.node.Publish(id, ev)
	})
	if doErr != nil {
		return doErr
	}
	return err
}

// dispatch fans a delivered event to the matching subscription callbacks.
func (p *Peer) dispatch(ev filter.Event) {
	p.mu.Lock()
	handlers := make([]subscriptionHandler, len(p.handlers))
	copy(handlers, p.handlers)
	p.mu.Unlock()
	for _, h := range handlers {
		if h.sub.Matches(ev) {
			h.fn(ev)
		}
	}
}
