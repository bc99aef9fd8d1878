// Package tcpnet runs DPS nodes across real processes: each node owns a
// TCP listener, messages travel as length-prefixed binary frames over
// persistent connections (the versioned codec of internal/core and
// internal/wire — see frame.go), and a small directory service bootstraps
// attribute-tree discovery. It is the third engine for the sans-IO
// protocol in internal/core, after the deterministic cycle simulator and
// the in-process goroutine runtime — what turns the reproduction into a
// deployable library.
//
// Scope: LAN/loopback-grade transport with reconnect-on-demand and
// drop-on-overflow semantics (the protocol tolerates loss by design).
// Malformed, oversized or unknown-version frames are fatal for the
// connection that carried them — never a panic, never an unbounded
// allocation. It deliberately has no TLS, NAT traversal or membership
// authentication.
package tcpnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dps-overlay/dps/internal/sim"
	"github.com/dps-overlay/dps/internal/wire"
)

// Config parameterises a Transport.
type Config struct {
	// ID is this node's overlay identifier; must be unique per deployment.
	ID sim.NodeID
	// Listen is the TCP address to bind ("127.0.0.1:0" picks a free port).
	Listen string
	// TickEvery is one protocol step of wall-clock time; defaults to 10ms.
	TickEvery time.Duration
	// Seed drives the node's deterministic random stream.
	Seed int64
	// InboxSize bounds buffered inbound work; overflow drops (default 4096).
	InboxSize int
	// Faults, when set, is the deployment-shared fault topology (link
	// cuts, partition classes, loss windows) this transport consults on
	// its receive path — see FaultPlane. Nil passes everything.
	Faults *FaultPlane
}

// Transport hosts one DPS node over TCP. It implements the engine side of
// the sim contract: the node's handlers run on a single goroutine fed by
// the listener and the ticker.
type Transport struct {
	cfg  Config
	proc sim.Process
	ln   net.Listener
	addr string // ln's address, stamped on every outbound frame
	rng  *rand.Rand

	clock atomic.Int64

	mu      sync.Mutex
	book    map[sim.NodeID]string // id -> listen addr
	conns   map[sim.NodeID]*outConn
	inConns map[net.Conn]bool

	inbox   chan inboxItem
	stop    chan struct{}
	done    chan struct{}
	wg      sync.WaitGroup
	dropped atomic.Int64
	closed  bool

	// flushQ lists connections with pending frames, in first-write order.
	// mainLoop-goroutine state: send() fills it, flushPending drains it
	// after every drained burst and every tick.
	flushQ []*outConn
}

type inboxItem struct {
	from sim.NodeID
	msg  any
	cmd  func()
}

// outConn is one outbound connection plus its pending write buffer: a
// pooled encoder frames accumulate in until the next flush (see send and
// flushPending). enc, pendFrames and queued belong to the mainLoop
// goroutine; mu guards the socket write against Close.
type outConn struct {
	mu   sync.Mutex
	conn net.Conn
	to   sim.NodeID

	enc        *wire.Encoder // pending frames, encoded in place
	pendFrames int           // frames in enc (drop accounting on error)
	queued     bool          // already on the transport's flush queue
}

// flushThreshold force-flushes a connection whose pending buffer grows
// past this size mid-iteration, bounding memory under bursts.
const flushThreshold = 64 << 10

// maxDrain caps a burst: the inbox items (messages and commands) mainLoop
// handles back to back before it flushes. The cap bounds how long a
// handled item's frames wait in the buffer and how long a due tick waits
// behind a full inbox.
const maxDrain = 64

// env adapts Transport to sim.Env.
type env struct{ t *Transport }

var _ sim.Env = env{}

func (e env) ID() sim.NodeID   { return e.t.cfg.ID }
func (e env) Now() int64       { return e.t.clock.Load() }
func (e env) Rand() *rand.Rand { return e.t.rng }
func (e env) Send(to sim.NodeID, m any) {
	e.t.send(to, m)
}

// New binds the listener and starts the node. The process is attached and
// begins ticking immediately.
func New(cfg Config, proc sim.Process) (*Transport, error) {
	if cfg.ID == 0 {
		return nil, errors.New("tcpnet: Config.ID must be non-zero")
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 10 * time.Millisecond
	}
	if cfg.InboxSize <= 0 {
		cfg.InboxSize = 4096
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen: %w", err)
	}
	t := &Transport{
		cfg:     cfg,
		proc:    proc,
		ln:      ln,
		addr:    ln.Addr().String(),
		rng:     rand.New(rand.NewSource(cfg.Seed ^ int64(cfg.ID)*0x5DEECE66D)),
		book:    make(map[sim.NodeID]string),
		conns:   make(map[sim.NodeID]*outConn),
		inConns: make(map[net.Conn]bool),
		inbox:   make(chan inboxItem, cfg.InboxSize),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	proc.Attach(env{t: t})
	t.wg.Add(2)
	go t.acceptLoop()
	go t.mainLoop()
	return t, nil
}

// Addr returns the bound listen address.
func (t *Transport) Addr() string { return t.addr }

// AddPeer teaches the transport where to reach another node.
func (t *Transport) AddPeer(id sim.NodeID, addr string) {
	t.mu.Lock()
	t.book[id] = addr
	t.mu.Unlock()
}

// Dropped reports messages lost to inbox overflow, dead connections or
// encoding failures.
func (t *Transport) Dropped() int64 { return t.dropped.Load() }

// Do runs fn on the node's goroutine — the only safe way to call
// Subscribe/Publish on the hosted core.Node.
func (t *Transport) Do(fn func()) error {
	ch := make(chan struct{})
	select {
	case t.inbox <- inboxItem{cmd: func() { defer close(ch); fn() }}:
	case <-t.stop:
		return errors.New("tcpnet: transport closed")
	}
	select {
	case <-ch:
		return nil
	case <-t.done:
		return errors.New("tcpnet: transport closed")
	}
}

// Close stops the node, the listener and all connections.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]net.Conn, 0, len(t.conns)+len(t.inConns))
	for _, c := range t.conns {
		conns = append(conns, c.conn)
	}
	for c := range t.inConns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	close(t.stop)
	_ = t.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	t.wg.Wait()
	return nil
}

// mainLoop is the node's single goroutine: messages, commands, ticks.
func (t *Transport) mainLoop() {
	defer t.wg.Done()
	defer close(t.done)
	ticker := time.NewTicker(t.cfg.TickEvery)
	defer ticker.Stop()
	for {
		select {
		case <-t.stop:
			return
		case item := <-t.inbox:
			// Handle the burst already queued behind this item, without
			// blocking and at most maxDrain items, before flushing.
			t.handle(item)
		drain:
			for n := 1; n < maxDrain; n++ {
				select {
				case item = <-t.inbox:
					t.handle(item)
				default:
					break drain
				}
			}
		case <-ticker.C:
			t.clock.Add(1)
			t.proc.OnTick()
		}
		// One write per connection per iteration: every frame the burst's
		// handlers (or the tick) just sent on a link — events and control
		// traffic alike — leaves in a single syscall, and nothing lingers
		// in the buffer while the loop blocks in select.
		t.flushPending()
	}
}

// handle runs one inbox item on the mainLoop goroutine.
func (t *Transport) handle(item inboxItem) {
	if item.cmd != nil {
		item.cmd()
	} else {
		t.proc.OnMessage(item.from, item.msg)
	}
}

// acceptLoop ingests inbound connections; each gets a reader goroutine.
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop decodes inbound frames until the connection dies or misbehaves.
// A malformed, oversized or unknown-version frame closes the connection:
// after a framing error the stream position is unreliable, so resyncing
// would risk feeding garbage to the decoder forever.
func (t *Transport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.inConns[conn] = true
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.inConns, conn)
		t.mu.Unlock()
	}()
	fr := newFrameReader(conn)
	// The return address last learned from this connection: a stream
	// carries one sender, so the book is written only when it changes.
	var learnedFrom sim.NodeID
	var learnedAddr string
	for {
		body, err := fr.next()
		if err != nil {
			return // EOF, connection error, or an oversized frame
		}
		from, addr, payload, err := decodeTransportBody(body)
		if err != nil {
			t.dropped.Add(1)
			return // corrupt frame: fatal for this connection
		}
		if t.cfg.Faults != nil && t.cfg.Faults.Drop(from, t.cfg.ID) != 0 {
			// Injected fault: the frame vanishes whole — not even the
			// sender's return address is learned from it (a real severed
			// network leaks nothing), and the connection stays.
			continue
		}
		if addr != "" && (from != learnedFrom || addr != learnedAddr) {
			t.AddPeer(from, addr) // learn return paths
			learnedFrom, learnedAddr = from, addr
		}
		select {
		case t.inbox <- inboxItem{from: from, msg: payload}:
		case <-t.stop:
			return
		default:
			t.dropped.Add(1)
		}
	}
}

// send encodes one frame into the peer connection's pending buffer,
// dialing or re-dialing as needed. The frame is written to the socket by
// the next flushPending (or immediately when the buffer crosses the
// flush threshold); encode and write share the connection's pooled
// encoder buffer, so the message bytes are laid down exactly once.
// Failures drop the message — the protocol's loss tolerance covers it.
func (t *Transport) send(to sim.NodeID, msg any) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	c := t.conns[to]
	addr, known := t.book[to]
	t.mu.Unlock()
	if c == nil {
		if !known {
			t.dropped.Add(1)
			return
		}
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.dropped.Add(1)
			return
		}
		c = &outConn{conn: conn, to: to, enc: wire.GetEncoder()}
		t.mu.Lock()
		if old := t.conns[to]; old != nil {
			t.mu.Unlock()
			_ = conn.Close()
			c = old
		} else {
			t.conns[to] = c
			t.mu.Unlock()
		}
	}
	buf, err := appendTransportFrame(c.enc.Buf, t.cfg.ID, t.addr, msg)
	c.enc.Buf = buf // on error the frame is truncated away, pending stays
	if err != nil {
		// Unencodable payload (not a protocol message, or over the frame
		// bound): the connection is fine, the message is not.
		t.dropped.Add(1)
		return
	}
	c.pendFrames++
	if !c.queued {
		c.queued = true
		t.flushQ = append(t.flushQ, c)
	}
	if c.enc.Len() >= flushThreshold {
		t.flushConn(c)
	}
}

// flushPending writes out every connection with buffered frames, in
// first-write order. Runs on the mainLoop goroutine after each burst or
// tick.
func (t *Transport) flushPending() {
	if len(t.flushQ) == 0 {
		return
	}
	q := t.flushQ
	t.flushQ = t.flushQ[:0]
	for _, c := range q {
		t.flushConn(c)
	}
}

// flushConn writes one connection's pending frames in a single syscall.
// A write error drops the connection and accounts every buffered frame
// as lost; the next send re-dials. The pooled encoder goes back to the
// pool on that path — by then nothing aliases its buffer.
func (t *Transport) flushConn(c *outConn) {
	n := c.pendFrames
	c.pendFrames = 0
	c.queued = false
	if n == 0 || c.enc == nil || c.enc.Len() == 0 {
		return
	}
	c.mu.Lock()
	_, err := c.conn.Write(c.enc.Buf)
	c.mu.Unlock()
	c.enc.Reset()
	if err != nil {
		// Connection went bad: forget it; the next send re-dials.
		t.mu.Lock()
		if t.conns[c.to] == c {
			delete(t.conns, c.to)
		}
		t.mu.Unlock()
		_ = c.conn.Close()
		t.dropped.Add(int64(n))
		enc := c.enc
		c.enc = nil
		wire.PutEncoder(enc)
	}
}
