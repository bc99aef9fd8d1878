package tcpnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/sim"
	"github.com/dps-overlay/dps/internal/wire"
)

func TestTransportFrameRoundTrip(t *testing.T) {
	for _, payload := range core.WireSamples() {
		frame, err := appendTransportFrame(nil, 42, "127.0.0.1:9999", payload)
		if err != nil {
			t.Fatalf("encoding %T: %v", payload, err)
		}
		body := frame[frameHeaderLen:]
		if got := binary.BigEndian.Uint32(frame[:frameHeaderLen]); int(got) != len(body) {
			t.Fatalf("length prefix %d, body %d", got, len(body))
		}
		from, addr, back, err := decodeTransportBody(body)
		if err != nil {
			t.Fatalf("decoding %T frame: %v", payload, err)
		}
		if from != 42 || addr != "127.0.0.1:9999" {
			t.Fatalf("header round trip: from=%d addr=%q", from, addr)
		}
		if _, err := core.AppendMessage(nil, back); err != nil {
			t.Fatalf("decoded payload %T is not a protocol message: %v", back, err)
		}
	}
}

func TestTransportFrameRejectsForeignPayload(t *testing.T) {
	if _, err := appendTransportFrame(nil, 1, "", "not a protocol message"); err == nil {
		t.Fatal("foreign payload encoded")
	}
}

func TestDirFrameRoundTrip(t *testing.T) {
	reqFrame, err := appendDirReq(nil, dirReq{Op: opClaimOwner, Attr: "price", Node: 7})
	if err != nil {
		t.Fatal(err)
	}
	req, err := decodeDirReq(reqFrame[frameHeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	if req.Op != opClaimOwner || req.Attr != "price" || req.Node != 7 {
		t.Fatalf("req round trip = %+v", req)
	}
	respFrame, err := appendDirResp(nil, dirResp{Node: 9, OK: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := decodeDirResp(respFrame[frameHeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Node != 9 || !resp.OK {
		t.Fatalf("resp round trip = %+v", resp)
	}
}

func TestDirFrameRejectsMalformedBodies(t *testing.T) {
	if _, err := decodeDirReq(nil); err == nil {
		t.Error("empty request body decoded")
	}
	if _, err := decodeDirReq([]byte{dirWireVersion + 1, byte(opOwner), 0, 0}); err == nil {
		t.Error("future version decoded")
	}
	if _, err := decodeDirReq([]byte{dirWireVersion, 99, 0, 0}); err == nil {
		t.Error("unknown op decoded")
	}
	good, _ := appendDirReq(nil, dirReq{Op: opOwner, Attr: "a"})
	if _, err := decodeDirReq(append(good[frameHeaderLen:], 0xAA)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := decodeDirResp([]byte{dirWireVersion, 0x02}); err == nil {
		t.Error("truncated response decoded")
	}
}

// TestFrameReaderMixedSizes pins that the small read buffer puts no
// limit on frame size: one write carries 200 protocol frames, a body of
// three read buffers and one at wire.MaxFrame, and every frame comes out
// of the reader in order and byte for byte.
func TestFrameReaderMixedSizes(t *testing.T) {
	samples := core.WireSamples()
	var stream []byte
	var want [][]byte
	for i := 0; i < 200; i++ {
		start := len(stream)
		var err error
		stream, err = appendTransportFrame(stream, sim.NodeID(i+1), "127.0.0.1:7001", samples[i%len(samples)])
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, stream[start+frameHeaderLen:])
	}
	for _, size := range []int{3 * frameReaderBuf, wire.MaxFrame} {
		body := make([]byte, size)
		for i := range body {
			body[i] = byte(i*7 + size)
		}
		stream = binary.BigEndian.AppendUint32(stream, uint32(size))
		stream = append(stream, body...)
		want = append(want, body)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_, _ = conn.Write(stream)
	}()
	conn := rawDial(t, ln.Addr().String())
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	fr := newFrameReader(conn)
	if br, ok := fr.src.(*bufio.Reader); !ok || br.Size() != frameReaderBuf {
		t.Fatalf("frame reader is not buffered at frameReaderBuf (%d bytes)", frameReaderBuf)
	}
	for i, w := range want {
		body, err := fr.next()
		if err != nil {
			t.Fatalf("frame %d of %d: %v", i, len(want), err)
		}
		if !bytes.Equal(body, w) {
			t.Fatalf("frame %d (%d bytes) differs from the %d bytes sent", i, len(body), len(w))
		}
		if i < 200 {
			from, _, _, err := decodeTransportBody(body)
			if err != nil || from != sim.NodeID(i+1) {
				t.Fatalf("frame %d decodes from=%d err=%v, want from=%d", i, from, err, i+1)
			}
		}
	}
	if _, err := fr.next(); !errors.Is(err, io.EOF) {
		t.Fatalf("after the last frame: %v, want EOF", err)
	}
}

// rawDial opens a plain TCP connection to a transport's listener.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// expectClosed asserts the peer closes the connection (read returns an
// error) within the deadline.
func expectClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection still open after a malformed frame")
	}
}

// TestOversizedFrameClosesConnection pins the max-frame-size guard: a
// length prefix beyond wire.MaxFrame must terminate the connection
// without allocating the claimed size and without disturbing the node.
func TestOversizedFrameClosesConnection(t *testing.T) {
	dir, err := ListenDirectory("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	n := startNode(t, 31, dir.Addr())

	conn := rawDial(t, n.tr.Addr())
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(wire.MaxFrame+1))
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn)

	// The transport keeps serving: a well-formed frame on a fresh
	// connection still reaches the node.
	if err := n.tr.Do(func() {}); err != nil {
		t.Fatalf("transport wedged after oversized frame: %v", err)
	}
}

// TestMalformedFrameClosesConnection pins the corrupt-body discipline: a
// frame whose body does not decode is a connection error, not a panic.
func TestMalformedFrameClosesConnection(t *testing.T) {
	dir, err := ListenDirectory("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	n := startNode(t, 32, dir.Addr())

	conn := rawDial(t, n.tr.Addr())
	body := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := conn.Write(append(hdr[:], body...)); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn)
	if n.tr.Dropped() == 0 {
		t.Error("malformed frame should count as dropped")
	}
	if err := n.tr.Do(func() {}); err != nil {
		t.Fatalf("transport wedged after malformed frame: %v", err)
	}
}

// TestDirectoryMalformedFrameClosesConnection applies the same discipline
// to the directory service.
func TestDirectoryMalformedFrameClosesConnection(t *testing.T) {
	dir, err := ListenDirectory("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()

	conn := rawDial(t, dir.Addr())
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(wire.MaxFrame+1))
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn)

	// The service itself survives and keeps answering fresh clients.
	c := DialDirectory(dir.Addr())
	defer c.Close()
	if got := c.ClaimOwner("a", 3); got != 3 {
		t.Fatalf("directory unusable after malformed frame: ClaimOwner = %d", got)
	}
}

// frameCodecOps returns the tcpnet encode and decode hot path as ops —
// the i-th op handles one full frame of the i-th representative protocol
// message — using the binary codec.
func frameCodecOps(tb testing.TB) (encode, decode func(i int) error) {
	samples := core.WireSamples()
	frames := make([][]byte, len(samples))
	for i, s := range samples {
		frame, err := appendTransportFrame(nil, 7, "127.0.0.1:7001", s)
		if err != nil {
			tb.Fatal(err)
		}
		frames[i] = frame
	}
	var buf []byte
	encode = func(i int) error {
		var err error
		buf, err = appendTransportFrame(buf[:0], 7, "127.0.0.1:7001", samples[i%len(samples)])
		return err
	}
	decode = func(i int) error {
		_, _, _, err := decodeTransportBody(frames[i%len(frames)][frameHeaderLen:])
		return err
	}
	return encode, decode
}

// BenchmarkTransportFrameCodec measures frameCodecOps. The gob
// comparison lives in the repository root (BenchmarkWireCodecVsGob),
// outside the gob-free packages.
func BenchmarkTransportFrameCodec(b *testing.B) {
	encode, decode := frameCodecOps(b)
	for _, bc := range []struct {
		name string
		op   func(int) error
	}{{"encode", encode}, {"decode", decode}} {
		bc := bc // the sub-benchmark's closure captures it
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.op(i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTransportFrameCodecAllocs pins BenchmarkTransportFrameCodec's
// allocs/op: encoding is allocation-free, decoding averages 4 over the
// sample frames.
func TestTransportFrameCodecAllocs(t *testing.T) {
	encode, decode := frameCodecOps(t)
	for _, pin := range []struct {
		name string
		op   func(int) error
		want float64
	}{{"encode", encode, 0}, {"decode", decode, 4}} {
		i := 0
		got := testing.AllocsPerRun(2000, func() {
			if err := pin.op(i); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if got != pin.want {
			t.Errorf("TransportFrameCodec/%s allocs/op = %v, pinned at %v", pin.name, got, pin.want)
		}
	}
}
