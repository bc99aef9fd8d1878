package dps

// Benchmark of the versioned binary wire codec (internal/wire + internal/
// core's per-message encoders) on the messages the event hot path ships.

import (
	"testing"

	"github.com/dps-overlay/dps/internal/core"
)

// wireCodecOps returns the codec's encode and decode of the event hot
// path's messages (publishTree, viewExchange, out of the codec's sample
// fixture) as ops; the i-th op handles the i-th message in turn.
func wireCodecOps(tb testing.TB) (encode, decode func(i int) error) {
	var payloads []any
	var frames [][]byte
	for _, s := range core.WireSamples() {
		data, err := core.AppendMessage(nil, s)
		if err != nil {
			tb.Fatal(err)
		}
		// version byte, then the message type.
		if t := core.MsgType(data[1]); t == core.MsgPublishTree || t == core.MsgViewExchange {
			payloads = append(payloads, s)
			frames = append(frames, data)
		}
	}
	if len(payloads) != 2 {
		tb.Fatalf("expected 2 hot-path samples, got %d", len(payloads))
	}
	var buf []byte
	encode = func(i int) error {
		var err error
		buf, err = core.AppendMessage(buf[:0], payloads[i%len(payloads)])
		return err
	}
	decode = func(i int) error {
		_, err := core.DecodeMessage(frames[i%len(frames)])
		return err
	}
	return encode, decode
}

// BenchmarkWireCodec/encode and /decode time wireCodecOps;
// TestWireCodecAllocs pins their allocs/op.
func BenchmarkWireCodec(b *testing.B) {
	encode, decode := wireCodecOps(b)
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

// TestWireCodecAllocs pins BenchmarkWireCodec's allocs/op: encoding is
// allocation-free, decoding averages 7 over the two messages.
func TestWireCodecAllocs(t *testing.T) {
	encode, decode := wireCodecOps(t)
	for _, pin := range []struct {
		name string
		op   func(int) error
		want float64
	}{{"encode", encode, 0}, {"decode", decode, 7}} {
		i := 0
		got := testing.AllocsPerRun(2000, func() {
			if err := pin.op(i); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if got != pin.want {
			t.Errorf("WireCodec/%s allocs/op = %v, pinned at %v", pin.name, got, pin.want)
		}
	}
}
