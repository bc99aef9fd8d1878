package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/livenet"
	"github.com/dps-overlay/dps/internal/sim"
	"github.com/dps-overlay/dps/internal/tcpnet"
	"github.com/dps-overlay/dps/internal/workload"
)

// netShape is one live-engine workload.
type netShape struct {
	tcp            bool // tcpnet with the networked directory; else livenet
	nodes, perNode int
	pacedRate      float64 // open-loop events per second
}

// The closed loop keeps closedOutstanding events in flight; a slot frees
// when its event completes or after closedTimeout. Rates are taken per
// closedWindow.
const (
	closedOutstanding = 32
	closedTimeout     = 250 * time.Millisecond
	closedWindow      = 200 * time.Millisecond
)

// maxNetEvents bounds the per-event completion table the delivery hooks
// read; a phase that reaches it stops publishing early.
const maxNetEvents = 1 << 20

// netCluster runs proxied nodes on livenet or tcpnet. Each node runs on
// its own goroutine; the benchmark reaches it only through Do.
type netCluster struct {
	shape netShape
	tr    *Tracer
	own   *lane        // the benchmark's own calls into the engine
	procs []*nodeProxy // procs[i] is node i+1
	do    []func(func()) error
	drops []func() int64
	close func()
	orc   *oracle
	subs  [][]filter.Subscription
	epoch time.Time
	evGen *workload.Generator
	rng   *rand.Rand
	next  core.EventID

	// Closed-loop completion: the expected-recipient mask of each event
	// and its count of pairs still missing. Hooks on node goroutines read
	// them, so they are atomics.
	masks     []atomic.Uint64
	remaining []atomic.Int32
	done      chan core.EventID
	pairs     atomic.Int64 // expected pairs delivered
}

func (c *netCluster) wall() int64 { return int64(time.Since(c.epoch)) }

// newNetCluster prepares a cluster; events is how many events the
// completion table holds (0 for a cluster that only measures set-up).
func newNetCluster(shape netShape, seed int64, tr *Tracer, events int) *netCluster {
	c := &netCluster{
		shape:     shape,
		tr:        tr,
		own:       tr.newLane(0),
		orc:       newOracle(),
		epoch:     time.Now(),
		evGen:     workload.MustGenerator(workload.Workload2(), seed^0x5eed),
		rng:       rand.New(rand.NewSource(seed ^ 0x9b11)),
		masks:     make([]atomic.Uint64, events),
		remaining: make([]atomic.Int32, events),
		// Each event completes once; the buffer covers every slot plus
		// late completions of timed-out events, and a full buffer only
		// costs the generator a timeout, never blocks a node.
		done: make(chan core.EventID, 4*closedOutstanding),
	}
	gen := workload.MustGenerator(workload.Workload2(), popSeed)
	c.subs = make([][]filter.Subscription, shape.nodes)
	for i := range c.subs {
		for s := 0; s < shape.perNode; s++ {
			c.subs[i] = append(c.subs[i], gen.Subscription())
		}
	}
	return c
}

// start launches the nodes.
func (c *netCluster) start(seed int64) error {
	if c.shape.tcp {
		return c.startTCP(seed)
	}
	c.startLive(seed)
	return nil
}

func (c *netCluster) newProxy(id sim.NodeID, dir core.Directory) (*nodeProxy, error) {
	p, err := newNodeProxy(id, dir, c.tr, c.wall)
	if err != nil {
		return nil, err
	}
	p.onDeliver = c.onDeliver
	c.procs = append(c.procs, p)
	return p, nil
}

// startLive builds the in-process deployment the dps facade runs: one
// livenet hub at the default 10 ms tick and a shared directory.
func (c *netCluster) startLive(seed int64) {
	hub := livenet.NewHub(livenet.Config{Seed: seed})
	dir := core.NewSharedDirectory()
	for i := 1; i <= c.shape.nodes; i++ {
		p, err := c.newProxy(sim.NodeID(i), dir)
		if err == nil {
			var peer *livenet.Peer
			peer, err = hub.AddPeer(sim.NodeID(i), p)
			if err == nil {
				c.do = append(c.do, peer.Do)
				c.drops = append(c.drops, peer.Dropped)
			}
		}
		if err != nil {
			panic(fmt.Sprintf("perfbench: live peer %d: %v", i, err)) // static config
		}
	}
	c.close = hub.Close
}

// startTCP builds the deployment dps-node runs: one tcpnet transport per
// node on loopback, each with its own client of one directory server.
func (c *netCluster) startTCP(seed int64) error {
	srv, err := tcpnet.ListenDirectory("127.0.0.1:0", seed)
	if err != nil {
		return err
	}
	var trs []*tcpnet.Transport
	var clients []*tcpnet.DirectoryClient
	var once sync.Once
	c.close = func() {
		once.Do(func() {
			for _, t := range trs {
				_ = t.Close()
			}
			for _, cl := range clients {
				_ = cl.Close()
			}
			_ = srv.Close()
		})
	}
	for i := 1; i <= c.shape.nodes; i++ {
		cl := tcpnet.DialDirectory(srv.Addr())
		clients = append(clients, cl)
		p, err := c.newProxy(sim.NodeID(i), cl)
		if err != nil {
			c.close()
			return err
		}
		t, err := tcpnet.New(tcpnet.Config{ID: sim.NodeID(i), Listen: "127.0.0.1:0", Seed: int64(i)}, p)
		if err != nil {
			c.close()
			return err
		}
		for j, o := range trs {
			t.AddPeer(sim.NodeID(j+1), o.Addr())
			o.AddPeer(sim.NodeID(i), t.Addr())
		}
		trs = append(trs, t)
		c.do = append(c.do, t.Do)
		c.drops = append(c.drops, t.Dropped)
	}
	return nil
}

// onDeliver runs on node goroutines: it counts expected pairs and
// completes an event once its last expected pair arrives.
func (c *netCluster) onDeliver(ev core.EventID, node sim.NodeID) {
	i := int(ev)
	if i >= len(c.masks) || c.masks[i].Load()&(1<<(uint(node)-1)) == 0 {
		return
	}
	c.pairs.Add(1)
	if c.remaining[i].Add(-1) == 0 {
		select {
		case c.done <- ev:
		default:
		}
	}
}

// call runs fn on node i's goroutine; traced, it records the benchmark's Do
// span with fn's own time subtracted — the wait in the node's inbox.
func (c *netCluster) call(i int, fn func()) error {
	if !c.tr.on() {
		return c.do[i](fn)
	}
	var fnNs int64
	t0 := c.tr.now()
	err := c.do[i](func() {
		f0 := c.tr.now()
		fn()
		fnNs = c.tr.now() - f0
	})
	dur := c.tr.now() - t0
	c.own.addCallSpan(spanDo, dur, dur-fnNs)
	return err
}

// onAll runs fn on every node's goroutine in turn. Besides its own use,
// it fences: everything a node did before is visible afterwards.
func (c *netCluster) onAll(fn func(p *nodeProxy)) error {
	for i, p := range c.procs {
		p := p
		if err := c.do[i](func() { fn(p) }); err != nil {
			return err
		}
	}
	return nil
}

// build subscribes the population and waits until every subscription is
// served by an active membership: the first subscription of each
// distinct filter first, then the rest.
func (c *netCluster) build(limit time.Duration) error {
	type job struct {
		i   int
		sub filter.Subscription
	}
	var creators, joiners []job
	seen := make(map[string]bool)
	for i, subs := range c.subs {
		for _, sub := range subs {
			fs, err := filter.SubscriptionFilters(sub)
			if err != nil {
				return err
			}
			if key := fs[0].Key(); !seen[key] {
				seen[key] = true
				creators = append(creators, job{i, sub})
			} else {
				joiners = append(joiners, job{i, sub})
			}
		}
	}
	want := make([]int, len(c.procs))
	deadline := time.Now().Add(limit)
	for _, wave := range [][]job{creators, joiners} {
		for _, j := range wave {
			var subErr error
			if err := c.call(j.i, func() { subErr = c.procs[j.i].Subscribe(j.sub) }); err != nil {
				return err
			}
			if subErr != nil {
				return subErr
			}
			c.orc.subscribe(sim.NodeID(j.i+1), j.sub)
			want[j.i]++
		}
		for !c.settled(want) {
			if time.Now().After(deadline) {
				return fmt.Errorf("overlay not settled after %v", limit)
			}
			sleepUntil(c.wall, c.wall()+int64(200*time.Microsecond))
		}
	}
	return nil
}

func (c *netCluster) settled(want []int) bool {
	ok := true
	_ = c.onAll(func(p *nodeProxy) {
		if len(p.node.Subscriptions()) != want[p.id-1] {
			ok = false
			return
		}
		for _, m := range p.node.Inspect() {
			if m.State != "active" {
				ok = false
			}
		}
	})
	return ok
}

// snapshot fences every node and returns the summed counters and drops.
func (c *netCluster) snapshot() (nodeCounters, int64) {
	var t nodeCounters
	_ = c.onAll(func(p *nodeProxy) { t.add(p.cnt) })
	var drops int64
	for _, d := range c.drops {
		drops += d()
	}
	return t, drops
}

func (c *netCluster) routingBytesPerNode() float64 {
	var total int64
	_ = c.onAll(func(p *nodeProxy) { total += p.node.RoutingStateBytes() })
	return ratio(float64(total), float64(len(c.procs)))
}

func (c *netCluster) deliveries() []delivery {
	var ds []delivery
	_ = c.onAll(func(p *nodeProxy) { ds = append(ds, p.deliveries...) })
	return ds
}

// nextEvent draws an event and its publisher and registers the expected
// recipients with the oracle and the completion table. Untracked events
// keep a remaining count of 0: their decrements go negative and never
// signal a completion.
func (c *netCluster) nextEvent(at int64, phase int, track bool) (core.EventID, int, filter.Event, int) {
	ev := c.evGen.Event()
	from := c.rng.Intn(len(c.procs))
	c.next++
	id := c.next
	exp := c.orc.expect(ev, nil)
	c.orc.record(id, &publication{ev: ev, at: at, expected: exp, phase: phase})
	var mask uint64
	for _, n := range exp {
		mask |= 1 << (uint(n) - 1)
	}
	if track {
		c.remaining[id].Store(int32(len(exp)))
	}
	c.masks[id].Store(mask)
	return id, from, ev, len(exp)
}

func (c *netCluster) publish(from int, id core.EventID, ev filter.Event) error {
	var pubErr error
	if err := c.call(from, func() { pubErr = c.procs[from].Publish(id, ev) }); err != nil {
		return err
	}
	return pubErr
}

// settle waits until deliveries stop arriving (at most a second), so the
// last events of a phase are judged after they had time to land.
func (c *netCluster) settle() {
	last := c.pairs.Load()
	for i := 0; i < 20; i++ {
		time.Sleep(50 * time.Millisecond)
		p := c.pairs.Load()
		if p == last {
			return
		}
		last = p
	}
}

// netPhase is what one measured phase observed.
type netPhase struct {
	wall     time.Duration
	cpu      time.Duration
	cnt      nodeCounters
	drops    int64
	rt0, rt1 runtimeSample
	late     []float64 // paced: ms the generator ran behind schedule
	// Closed loop, per window at reference speed: pairs per second, CPU
	// seconds per pair.
	rates, cpuPerPair []window
	timeouts          int
}

func (c *netCluster) begin() (nodeCounters, int64, runtimeSample, time.Duration) {
	cnt, drops := c.snapshot()
	return cnt, drops, readRuntime(), processCPU()
}

func (c *netCluster) end(ph *netPhase, cnt0 nodeCounters, drops0 int64, rt0 runtimeSample, cpu0 time.Duration) {
	ph.cpu = processCPU() - cpu0
	ph.rt0, ph.rt1 = rt0, readRuntime()
	cnt, drops := c.snapshot()
	ph.cnt, ph.drops = cnt.sub(cnt0), drops-drops0
}

// paced publishes at a fixed absolute rate for d, open loop: each event
// has a due time, and its latency is measured from it, so a stall counts
// against every event it delays.
func (c *netCluster) paced(d time.Duration, phase int) (netPhase, error) {
	var ph netPhase
	cnt0, drops0, rt0, cpu0 := c.begin()
	n := int64(d.Seconds() * c.shape.pacedRate)
	interval := int64(float64(time.Second) / c.shape.pacedRate)
	start := c.wall()
	for k := int64(0); k < n && int(c.next)+1 < len(c.masks); k++ {
		due := start + k*interval
		sleepUntil(c.wall, due)
		ph.late = append(ph.late, float64(c.wall()-due)/1e6)
		id, from, ev, _ := c.nextEvent(due, phase, false)
		if err := c.publish(from, id, ev); err != nil {
			return ph, err
		}
	}
	// Let the last events land before the CPU and counter readings.
	time.Sleep(20 * time.Millisecond)
	ph.wall = time.Duration(c.wall() - start)
	c.end(&ph, cnt0, drops0, rt0, cpu0)
	return ph, nil
}

// sleepUntil blocks until clock reaches due. Go timers wake at
// millisecond granularity, so the last stretch is a nanosleep system call,
// which the kernel ends within its timer slack (about 50 µs).
func sleepUntil(clock func() int64, due int64) {
	const slack = 50 * time.Microsecond
	wait := time.Duration(due - clock())
	if wait > 2*time.Millisecond {
		time.Sleep(wait - 2*time.Millisecond)
		wait = time.Duration(due - clock())
	}
	if wait > slack {
		ts := syscall.NsecToTimespec(int64(wait - slack))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait
	}
}

// closedLoop keeps a fixed number of events outstanding for d: a slot
// frees when its event's last expected pair arrives, or after the
// timeout (the missing pairs then count as failed). It runs in windows of
// rateWindow; each window ends by letting its events complete, and the
// machine's slowdown is measured before the next one starts.
func (c *netCluster) closedLoop(d time.Duration, phase int) (netPhase, error) {
	var ph netPhase
	cnt0, drops0, rt0, cpu0 := c.begin()
	open := make(map[core.EventID]int64, closedOutstanding)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	wait := func() {
		select {
		case id := <-c.done:
			delete(open, id)
		case <-tick.C:
			now := c.wall()
			for id, t := range open {
				if now-t > int64(closedTimeout) {
					delete(open, id)
					ph.timeouts++
				}
			}
		}
	}
	begin := c.wall()
	for c.wall()-begin < int64(d) {
		start, pairs, cpu := c.wall(), c.pairs.Load(), processCPU()
		for c.wall()-start < int64(closedWindow) {
			for len(open) < closedOutstanding && int(c.next)+1 < len(c.masks) {
				id, from, ev, want := c.nextEvent(c.wall(), phase, true)
				if err := c.publish(from, id, ev); err != nil {
					return ph, err
				}
				if want > 0 {
					open[id] = c.wall()
				}
			}
			wait()
		}
		for len(open) > 0 {
			wait()
		}
		secs := float64(c.wall()-start) / 1e9
		got := float64(c.pairs.Load() - pairs)
		used := (processCPU() - cpu).Seconds()
		f := slowdown()
		ph.rates = append(ph.rates, window{got, secs / f})
		ph.cpuPerPair = append(ph.cpuPerPair, window{used / f, got})
	}
	ph.wall = time.Duration(c.wall() - begin)
	c.end(&ph, cnt0, drops0, rt0, cpu0)
	return ph, nil
}
