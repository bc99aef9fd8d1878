package dps

// Benchmark of the versioned binary wire codec (internal/wire + internal/
// core's per-message encoders) on the messages the event hot path ships.

import (
	"testing"

	"github.com/dps-overlay/dps/internal/core"
)

// benchCodecPayloads picks the event hot path's messages (publishTree,
// viewExchange) out of the codec's sample fixture.
func benchCodecPayloads(b *testing.B) []any {
	var out []any
	for _, s := range core.WireSamples() {
		data, err := core.AppendMessage(nil, s)
		if err != nil {
			b.Fatal(err)
		}
		// version byte, then the message type.
		if t := core.MsgType(data[1]); t == core.MsgPublishTree || t == core.MsgViewExchange {
			out = append(out, s)
		}
	}
	if len(out) != 2 {
		b.Fatalf("expected 2 hot-path samples, got %d", len(out))
	}
	return out
}

// BenchmarkWireCodec/encode and /decode time the codec on the hot-path
// messages; the bench guard tracks both on ns/op and allocs/op.
func BenchmarkWireCodec(b *testing.B) {
	payloads := benchCodecPayloads(b)

	b.Run("encode", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = core.AppendMessage(buf[:0], payloads[i%len(payloads)])
			if err != nil {
				b.Fatal(err)
			}
		}
	})

	frames := make([][]byte, len(payloads))
	for i, p := range payloads {
		data, err := core.AppendMessage(nil, p)
		if err != nil {
			b.Fatal(err)
		}
		frames[i] = data
	}
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.DecodeMessage(frames[i%len(frames)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
