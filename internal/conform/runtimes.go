package conform

import (
	"fmt"
	"sync"
	"time"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/livenet"
	"github.com/dps-overlay/dps/internal/metrics"
	"github.com/dps-overlay/dps/internal/sim"
	"github.com/dps-overlay/dps/internal/tcpnet"
)

// simRuntime is the deterministic reference: the cycle engine with the
// shared directory registered as its step service. advance *drives* the
// simulation (the live runtimes merely wait on their clocks), so a run
// on it is a pure function of its inputs.
//
// It also carries what the paper figures read of the traffic: the
// per-node message counts by kind and the inter-group tree-hop sum, fed
// from the engine's send and delivery hooks, which fire on the stepping
// goroutine under the parallel executor too. Both are sums, so they stay
// seed-deterministic at any worker count.
type simRuntime struct {
	*sim.Engine

	dir                       *core.SharedDirectory
	lossDrops, partitionDrops int64

	traffic      map[int64]*metrics.Counts
	treeForwards int64
}

func newSimRuntime(seed int64, workers int) *simRuntime {
	r := &simRuntime{
		dir:     core.NewSharedDirectory(),
		traffic: make(map[int64]*metrics.Counts),
	}
	r.Engine = sim.NewEngine(sim.Config{
		Seed:    seed,
		Workers: workers,
		OnSend: func(from, to sim.NodeID, msg any) {
			r.counts(from).Out[metrics.KindOf(msg)]++
			if hops := core.TreeForwards(msg); hops > 0 {
				r.treeForwards += hops
			}
		},
		OnDeliver: func(from, to sim.NodeID, msg any) {
			r.counts(to).In[metrics.KindOf(msg)]++
		},
		OnDrop: func(from, to sim.NodeID, msg any, reason sim.DropReason) {
			switch reason {
			case sim.DropLoss:
				r.lossDrops++
			case sim.DropPartition:
				r.partitionDrops++
			}
		},
	})
	// The directory must learn step boundaries: its snapshot semantics
	// keep node processing order-independent within a step, for the
	// sequential and the parallel executor alike.
	r.AddService(r.dir)
	return r
}

// counts returns a node's traffic counters, opening them on first use.
func (r *simRuntime) counts(id sim.NodeID) *metrics.Counts {
	c := r.traffic[int64(id)]
	if c == nil {
		c = &metrics.Counts{}
		r.traffic[int64(id)] = c
	}
	return c
}

// host adds the node, or revives the id's slot if it had one before.
func (r *simRuntime) host(id sim.NodeID, build func(core.Directory) *core.Node) (handle, error) {
	node := build(r.dir)
	if r.Process(id) != nil {
		return direct{}, r.Engine.Restart(id, node)
	}
	return direct{}, r.Add(id, node)
}

func (r *simRuntime) advance()                                 { r.Step() }
func (r *simRuntime) TreeOwner(attr string) (sim.NodeID, bool) { return r.dir.Owner(attr) }
func (r *simRuntime) DroppedFaults() (loss, partition int64)   { return r.lossDrops, r.partitionDrops }
func (r *simRuntime) Close()                                   {}

// direct reaches a cycle-engine node: its nodes are only touched between
// steps, on the runner goroutine, so a call needs no indirection. The
// cycle engine has no inboxes to overflow.
type direct struct{}

func (direct) Do(fn func()) error { fn(); return nil }
func (direct) Dropped() int64     { return 0 }

// liveRuntime runs the population on the goroutine hub: one goroutine per
// peer, wall-clock ticks, asynchronous channel delivery, the shared
// in-process directory. The hub is the fault surface; the runner reaches
// a peer through Peer.Do.
type liveRuntime struct {
	*livenet.Hub

	dir  *core.SharedDirectory
	tick time.Duration
}

func newLiveRuntime(cfg livenet.Config) *liveRuntime {
	return &liveRuntime{Hub: livenet.NewHub(cfg), dir: core.NewSharedDirectory(), tick: cfg.TickEvery}
}

// host attaches a peer; for a killed id this is the hub's Restart (a
// fresh peer with a fresh incarnation's random stream).
func (r *liveRuntime) host(id sim.NodeID, build func(core.Directory) *core.Node) (handle, error) {
	return r.AddPeer(id, build(r.dir))
}

func (r *liveRuntime) advance()                                 { time.Sleep(r.tick / 4) }
func (r *liveRuntime) TreeOwner(attr string) (sim.NodeID, bool) { return r.dir.Owner(attr) }

// tcpRuntime runs the population as real TCP processes on loopback: one
// Transport (listener + node goroutine) per peer, length-prefixed binary
// frames on the wire, the networked directory service for bootstrap, and
// a shared FaultPlane as the injection surface. A crash is a closed
// transport (peers see dead connections and their sends drop); a restart
// is a fresh transport under the old identity on a fresh port, with the
// address books of every live peer updated — exactly a process reboot.
//
// The runtime keeps its own logical clock (wall-clock ticks since start
// at the configured period) for scenario scheduling; each transport ticks
// its node independently at the same period, so harness steps and node
// steps advance at the same rate without sharing a clock — as deployed
// processes would.
type tcpRuntime struct {
	*tcpnet.FaultPlane

	tick  time.Duration
	seed  int64
	start time.Time

	dirSrv *tcpnet.DirectoryServer
	dirCli *tcpnet.DirectoryClient

	mu           sync.Mutex
	peers        map[sim.NodeID]tcpPeer
	incarnations map[sim.NodeID]int64
}

// tcpPeer is one live process: its transport and its directory client.
type tcpPeer struct {
	tr  *tcpnet.Transport
	dir *tcpnet.DirectoryClient
}

func newTCPRuntime(opts Options) (*tcpRuntime, error) {
	srv, err := tcpnet.ListenDirectory("127.0.0.1:0", opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("conform: directory listen: %w", err)
	}
	return &tcpRuntime{
		FaultPlane:   tcpnet.NewFaultPlane(opts.Seed),
		tick:         opts.TickEvery,
		seed:         opts.Seed,
		start:        time.Now(),
		dirSrv:       srv,
		dirCli:       tcpnet.DialDirectory(srv.Addr()),
		peers:        make(map[sim.NodeID]tcpPeer),
		incarnations: make(map[sim.NodeID]int64),
	}, nil
}

// Now is the harness clock: wall-clock ticks since the runtime started.
func (r *tcpRuntime) Now() int64 { return int64(time.Since(r.start) / r.tick) }

func (r *tcpRuntime) advance() { time.Sleep(r.tick / 4) }

func (r *tcpRuntime) Alive(id sim.NodeID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.peers[id]
	return ok
}

func (r *tcpRuntime) AliveIDs() []sim.NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedIDs(r.peers)
}

func (r *tcpRuntime) AliveCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.peers)
}

// Kill closes the transport — a fail-stop process exit.
func (r *tcpRuntime) Kill(id sim.NodeID) {
	r.mu.Lock()
	p, ok := r.peers[id]
	delete(r.peers, id)
	r.mu.Unlock()
	if ok {
		_ = p.tr.Close()
		_ = p.dir.Close()
	}
}

// host starts a transport-hosted node under the id, with its own
// directory client, and introduces it to every live peer (both
// address-book directions).
func (r *tcpRuntime) host(id sim.NodeID, build func(core.Directory) *core.Node) (handle, error) {
	dc := tcpnet.DialDirectory(r.dirSrv.Addr())
	node := build(dc)
	r.mu.Lock()
	incarnation := r.incarnations[id]
	r.incarnations[id] = incarnation + 1
	r.mu.Unlock()
	tr, err := tcpnet.New(tcpnet.Config{
		ID:        id,
		Listen:    "127.0.0.1:0",
		TickEvery: r.tick,
		Seed:      r.seed ^ (int64(id)+1)<<16 ^ incarnation<<3,
		Faults:    r.FaultPlane,
	}, node)
	if err != nil {
		_ = dc.Close()
		return nil, err
	}
	r.mu.Lock()
	for other, op := range r.peers {
		tr.AddPeer(other, op.tr.Addr())
		op.tr.AddPeer(id, tr.Addr())
	}
	r.peers[id] = tcpPeer{tr: tr, dir: dc}
	r.mu.Unlock()
	return tr, nil
}

func (r *tcpRuntime) TreeOwner(attr string) (sim.NodeID, bool) { return r.dirCli.Owner(attr) }
func (r *tcpRuntime) DroppedFaults() (loss, partition int64)   { return r.Dropped() }

func (r *tcpRuntime) Close() {
	r.mu.Lock()
	peers := r.peers
	r.peers = make(map[sim.NodeID]tcpPeer)
	r.mu.Unlock()
	for _, p := range peers {
		_ = p.tr.Close()
		_ = p.dir.Close()
	}
	_ = r.dirCli.Close()
	_ = r.dirSrv.Close()
}
