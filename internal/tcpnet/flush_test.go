package tcpnet

// Tests for the buffered write path (send → pending encoder →
// flushPending/flushConn) and the pooled-encoder ownership rules it
// relies on. These pin that frames coalesce in the connection's pooled
// encoder, leave in one write per drained burst in send order, oversized
// pending buffers flush mid-burst, and a dead connection accounts every
// buffered frame before the encoder is recycled.

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/sim"
	"github.com/dps-overlay/dps/internal/wire"
)

// nullProc is an inert process: the flush tests drive send() directly on
// the mainLoop goroutine via Transport.Do.
type nullProc struct{}

func (nullProc) Attach(sim.Env)            {}
func (nullProc) OnMessage(sim.NodeID, any) {}
func (nullProc) OnTick()                   {}

// fakePeer is a raw TCP listener standing in for a remote transport: it
// accepts connections and exposes received frame bodies in arrival order.
type fakePeer struct {
	t  *testing.T
	ln net.Listener

	mu     sync.Mutex
	frames [][]byte
}

func newFakePeer(t *testing.T) *fakePeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &fakePeer{t: t, ln: ln}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				fr := newFrameReader(conn)
				for {
					body, err := fr.next()
					if err != nil {
						return
					}
					p.mu.Lock()
					p.frames = append(p.frames, append([]byte(nil), body...))
					p.mu.Unlock()
				}
			}()
		}
	}()
	return p
}

func (p *fakePeer) received() [][]byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([][]byte, len(p.frames))
	copy(out, p.frames)
	return out
}

// startFlushTransport builds a transport whose ticker never fires, so the
// only mainLoop iterations are the ones the test injects through Do.
func startFlushTransport(t *testing.T, id sim.NodeID) *Transport {
	t.Helper()
	tr, err := New(Config{ID: id, Listen: "127.0.0.1:0", TickEvery: time.Hour}, nullProc{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	return tr
}

// TestFlushCoalescesFrames: frames sent within one mainLoop iteration
// accumulate in the connection's pending encoder and leave together at
// the iteration's end, in send order, each decoding to its own message.
func TestFlushCoalescesFrames(t *testing.T) {
	peer := newFakePeer(t)
	tr := startFlushTransport(t, 1)
	tr.AddPeer(2, peer.ln.Addr().String())

	samples := core.WireSamples()
	var want [][]byte
	if err := tr.Do(func() {
		for _, s := range samples {
			tr.send(2, s)
			body, err := appendTransportFrame(nil, 1, tr.Addr(), s)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, body[frameHeaderLen:])
		}
		// Still inside the iteration: everything is pending, nothing sent.
		c := tr.conns[2]
		if c == nil {
			t.Fatal("no outbound connection after send")
		}
		if c.pendFrames != len(samples) {
			t.Errorf("pendFrames = %d, want %d", c.pendFrames, len(samples))
		}
		if !c.queued || len(tr.flushQ) != 1 {
			t.Errorf("queued=%v flushQ=%d, want connection queued once", c.queued, len(tr.flushQ))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(t, 5*time.Second, func() bool { return len(peer.received()) == len(samples) }) {
		t.Fatalf("received %d frames, want %d", len(peer.received()), len(samples))
	}
	for i, body := range peer.received() {
		if !bytes.Equal(body, want[i]) {
			t.Errorf("frame %d differs from its send-order encoding", i)
		}
		from, _, payload, err := decodeTransportBody(body)
		if err != nil {
			t.Fatalf("frame %d does not decode: %v", i, err)
		}
		if from != 1 || payload == nil {
			t.Errorf("frame %d: from=%d payload=%v", i, from, payload)
		}
	}
	if err := tr.Do(func() {
		if c := tr.conns[2]; c.pendFrames != 0 || c.enc.Len() != 0 || c.queued {
			t.Errorf("pending state survived the flush: frames=%d bytes=%d queued=%v",
				c.pendFrames, c.enc.Len(), c.queued)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// runBurst blocks the mainLoop inside one command, queues k more commands
// behind it, each sending one frame to peer 2, then releases the loop.
// It returns the pendFrames count each queued command saw on entry (on
// the peer's connection, established beforehand) and the frames the
// commands sent, in send order.
func runBurst(t *testing.T, tr *Transport, k int) (seen []int, want [][]byte) {
	t.Helper()
	samples := core.WireSamples()
	started, release := make(chan struct{}), make(chan struct{})
	blocked := make(chan error, 1)
	go func() { blocked <- tr.Do(func() { close(started); <-release }) }()
	<-started
	seen = make([]int, k)
	done := make(chan struct{}, k)
	for i := 0; i < k; i++ {
		i, s := i, samples[i%len(samples)]
		body, err := appendTransportFrame(nil, 1, tr.Addr(), s)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, body[frameHeaderLen:])
		// Queued straight onto the inbox, the way Do queues, so the
		// k commands sit there in order while the loop is blocked.
		tr.inbox <- inboxItem{cmd: func() {
			seen[i] = tr.conns[2].pendFrames
			tr.send(2, s)
			done <- struct{}{}
		}}
	}
	close(release)
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		<-done
	}
	return seen, want
}

// TestDrainFlushesOncePerBurst: commands already queued when the loop
// wakes run back to back with no flush between them — command i finds
// the i−1 frames its predecessors sent still pending — and their frames
// then arrive in send order. A queue longer than maxDrain is cut into
// bursts: the command after the first maxDrain items finds a flushed
// connection.
func TestDrainFlushesOncePerBurst(t *testing.T) {
	peer := newFakePeer(t)
	tr := startFlushTransport(t, 1)
	tr.AddPeer(2, peer.ln.Addr().String())
	samples := core.WireSamples()
	// Establish the connection so every queued command can read it.
	if err := tr.Do(func() { tr.send(2, samples[0]) }); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(t, 5*time.Second, func() bool { return len(peer.received()) == 1 }) {
		t.Fatal("first frame never arrived")
	}

	const k = 5
	seen, want := runBurst(t, tr, k)
	for i, n := range seen {
		if n != i {
			t.Errorf("queued command %d saw %d pending frames, want %d (a flush ran inside the burst)", i+1, n, i)
		}
	}
	if !waitUntil(t, 5*time.Second, func() bool { return len(peer.received()) == 1+k }) {
		t.Fatalf("received %d frames, want %d", len(peer.received()), 1+k)
	}
	for i, body := range peer.received()[1:] {
		if !bytes.Equal(body, want[i]) {
			t.Errorf("frame %d arrived out of send order", i)
		}
	}

	// The blocking command is the burst's first item, so the burst ends
	// after maxDrain−1 queued commands and the next one starts a new
	// burst on a flushed connection.
	seen, _ = runBurst(t, tr, maxDrain+1)
	for i, n := range seen {
		want := i
		if i >= maxDrain-1 {
			want = i - (maxDrain - 1)
		}
		if n != want {
			t.Fatalf("queued command %d saw %d pending frames, want %d (maxDrain = %d)", i+1, n, want, maxDrain)
		}
	}
	if !waitUntil(t, 5*time.Second, func() bool { return len(peer.received()) == 1+k+maxDrain+1 }) {
		t.Fatalf("received %d frames, want %d", len(peer.received()), 1+k+maxDrain+1)
	}
}

// TestFlushThresholdBoundsPendingBuffer: a burst that outgrows
// flushThreshold within one iteration flushes mid-iteration, so pending
// bytes never exceed threshold + one frame.
func TestFlushThresholdBoundsPendingBuffer(t *testing.T) {
	peer := newFakePeer(t)
	tr := startFlushTransport(t, 1)
	tr.AddPeer(2, peer.ln.Addr().String())

	samples := core.WireSamples()
	frame, err := appendTransportFrame(nil, 1, "127.0.0.1:1", samples[0])
	if err != nil {
		t.Fatal(err)
	}
	// Enough copies of the first sample to cross the threshold twice over.
	n := 2*flushThreshold/len(frame) + 2
	if err := tr.Do(func() {
		maxPend := 0
		for i := 0; i < n; i++ {
			tr.send(2, samples[0])
			if l := tr.conns[2].enc.Len(); l > maxPend {
				maxPend = l
			}
		}
		if maxPend > flushThreshold+len(frame) {
			t.Errorf("pending buffer reached %d bytes, threshold is %d", maxPend, flushThreshold)
		}
		if tr.conns[2].pendFrames >= n {
			t.Error("no mid-iteration flush happened")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(t, 5*time.Second, func() bool { return len(peer.received()) == n }) {
		t.Fatalf("received %d frames, want %d", len(peer.received()), n)
	}
}

// TestFlushDeadConnectionDropsPending: a write failure accounts every
// buffered frame as dropped, forgets the connection, recycles its
// encoder, and the next send re-dials cleanly.
func TestFlushDeadConnectionDropsPending(t *testing.T) {
	peer := newFakePeer(t)
	tr := startFlushTransport(t, 1)
	tr.AddPeer(2, peer.ln.Addr().String())

	samples := core.WireSamples()
	// Establish the connection with one flushed frame.
	if err := tr.Do(func() { tr.send(2, samples[0]) }); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(t, 5*time.Second, func() bool { return len(peer.received()) == 1 }) {
		t.Fatal("first frame never arrived")
	}
	before := tr.Dropped()
	const staged = 3
	if err := tr.Do(func() {
		// Kill the socket out from under the pending buffer: the flush at
		// this iteration's end must fail deterministically.
		c := tr.conns[2]
		_ = c.conn.Close()
		for i := 0; i < staged; i++ {
			tr.send(2, samples[0])
		}
	}); err != nil {
		t.Fatal(err)
	}
	// The failing flush ends the burst that ran the staged command; a
	// command queued right behind it may share that burst, so wait for
	// the flush's accounting before looking at the table.
	if !waitUntil(t, 5*time.Second, func() bool { return tr.Dropped()-before >= staged }) {
		t.Fatalf("dropped %d frames, want %d (every buffered frame)", tr.Dropped()-before, staged)
	}
	if err := tr.Do(func() {
		if tr.conns[2] != nil {
			t.Error("dead connection still in the table")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Dropped() - before; got != staged {
		t.Errorf("dropped %d frames, want %d (every buffered frame)", got, staged)
	}
	// The next send re-dials and delivers.
	if err := tr.Do(func() { tr.send(2, samples[1]) }); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(t, 5*time.Second, func() bool { return len(peer.received()) == 2 }) {
		t.Fatal("send after reconnect never arrived")
	}
}

// TestUnencodablePayloadLeavesPendingIntact: a payload the codec rejects
// is dropped without disturbing frames already buffered on the link.
func TestUnencodablePayloadLeavesPendingIntact(t *testing.T) {
	peer := newFakePeer(t)
	tr := startFlushTransport(t, 1)
	tr.AddPeer(2, peer.ln.Addr().String())

	samples := core.WireSamples()
	before := tr.Dropped()
	if err := tr.Do(func() {
		tr.send(2, samples[0])
		pend := tr.conns[2].enc.Len()
		tr.send(2, "not a protocol message")
		if got := tr.conns[2].enc.Len(); got != pend {
			t.Errorf("failed encode left %d pending bytes, want %d", got, pend)
		}
		if tr.conns[2].pendFrames != 1 {
			t.Errorf("pendFrames = %d, want 1", tr.conns[2].pendFrames)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped()-before != 1 {
		t.Errorf("dropped = %d, want 1 (the unencodable payload)", tr.Dropped()-before)
	}
	if !waitUntil(t, 5*time.Second, func() bool { return len(peer.received()) == 1 }) {
		t.Fatal("good frame never arrived")
	}
}

// TestPooledEncoderAliasing pins the decode side of the zero-copy
// ownership rule (documented on wire.Encoder): messages decoded from a
// frame must not alias the buffer that carried them, because transports
// reset and recycle that buffer while decoded events are still live in
// node state. The test decodes from a pooled encoder's buffer, scribbles
// over and recycles the buffer, and requires the decoded message's
// canonical encoding to be unchanged.
func TestPooledEncoderAliasing(t *testing.T) {
	for _, s := range core.WireSamples() {
		enc := wire.GetEncoder()
		buf, err := appendTransportFrame(enc.Buf, 42, "127.0.0.1:4242", s)
		if err != nil {
			t.Fatal(err)
		}
		enc.Buf = buf
		from, addr, payload, err := decodeTransportBody(enc.Buf[frameHeaderLen:])
		if err != nil {
			t.Fatalf("decode %T: %v", s, err)
		}
		canon, err := core.AppendMessage(nil, payload)
		if err != nil {
			t.Fatalf("canonicalise %T: %v", s, err)
		}
		// Scribble over every byte the decode saw, then recycle the
		// encoder the way flushConn does after a write.
		for i := range enc.Buf {
			enc.Buf[i] = 0xAA
		}
		enc.Reset()
		wire.PutEncoder(enc)
		if from != 42 || addr != "127.0.0.1:4242" {
			t.Errorf("%T: frame header aliased the recycled buffer (from=%d addr=%q)", s, from, addr)
		}
		canon2, err := core.AppendMessage(nil, payload)
		if err != nil {
			t.Fatalf("re-canonicalise %T after scribble: %v", s, err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Errorf("%T: decoded message aliases the recycled encoder buffer:\n  before: %x\n  after:  %x",
				s, canon, canon2)
		}
	}
}

// TestPooledEncoderReuse pins the pool contract itself: Get returns an
// empty encoder, capacity is retained across Put/Get for steady-state
// reuse, and oversized buffers are dropped rather than pinned.
func TestPooledEncoderReuse(t *testing.T) {
	e := wire.GetEncoder()
	if e.Len() != 0 {
		t.Fatalf("pooled encoder arrived with %d pending bytes", e.Len())
	}
	e.Buf = append(e.Buf, make([]byte, 4096)...)
	if e.Len() != 4096 {
		t.Fatalf("Len = %d", e.Len())
	}
	e.Reset()
	if e.Len() != 0 || cap(e.Buf) < 4096 {
		t.Fatalf("Reset lost capacity: len=%d cap=%d", e.Len(), cap(e.Buf))
	}
	wire.PutEncoder(e)
	// An over-limit buffer must not come back from the pool.
	big := wire.GetEncoder()
	big.Buf = append(big.Buf[:0], make([]byte, 1<<19)...)
	wire.PutEncoder(big)
	again := wire.GetEncoder()
	if again.Len() != 0 {
		t.Errorf("encoder from pool has %d pending bytes", again.Len())
	}
	wire.PutEncoder(again)
	// Nil is a no-op (the dead-connection path puts a nil-ed field).
	wire.PutEncoder(nil)
}
