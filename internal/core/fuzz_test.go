package core

import (
	"bytes"
	"testing"

	"github.com/dps-overlay/dps/internal/wire"
)

// FuzzDecodeMessage drives the wire codec decoder with arbitrary bytes,
// seeded from the golden vectors (one encoding per message type). The
// decoder's contract under fuzzing: never panic, never allocate beyond
// the frame bound, and accept only inputs that re-encode to a stable
// canonical byte form.
func FuzzDecodeMessage(f *testing.F) {
	for _, s := range WireSamples() {
		data, err := AppendMessage(nil, s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// A few malformed shapes to start the corpus off the happy path.
	f.Add([]byte{})
	f.Add([]byte{WireVersion})
	f.Add([]byte{WireVersion, byte(MsgViewExchange), 0xFF, 0xFF, 0xFF})
	f.Add([]byte{1, byte(MsgHeartbeat)}) // a version-1 frame
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeMessage(data)
		if err != nil {
			return // rejection is fine; panics and hangs are the failure mode
		}
		// Anything accepted must re-encode (the canonical form) and the
		// canonical form must be a decode/encode fixpoint.
		canon, err := AppendMessage(nil, msg)
		if err != nil {
			t.Fatalf("decoded %#v does not re-encode: %v", msg, err)
		}
		again, err := DecodeMessage(canon)
		if err != nil {
			t.Fatalf("canonical bytes %x do not decode: %v", canon, err)
		}
		canon2, err := AppendMessage(nil, again)
		if err != nil {
			t.Fatalf("re-encoding canonical decode failed: %v", err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("canonical form is not a fixpoint:\n  first:  %x\n  second: %x", canon, canon2)
		}
	})
}

// retiredBatchType is the message type of the batched-events envelope
// that wire version 1 carried: a count, then that many publishTree or
// publishGroup messages (type byte + body). Version 2 dropped it.
const retiredBatchType = 17

// FuzzDecodeBatchFrame drives the decoder with frames shaped like the
// retired batched-events envelope — what a peer still on wire version 1
// sends. The corpus holds such batches as that peer encoded them, the
// same bodies under the current version byte, length-amplified counts,
// truncations, and batches smuggling non-event or nested types. The
// contract: never panic, and never accept a frame whose header is not
// the current version or names the retired type.
func FuzzDecodeBatchFrame(f *testing.F) {
	var events [][]byte // inner encodings: type byte + body
	for _, s := range WireSamples() {
		switch s.(message).msgType() {
		case MsgPublishTree, MsgPublishGroup:
			data, err := AppendMessage(nil, s)
			if err != nil {
				f.Fatal(err)
			}
			events = append(events, data[1:])
		}
	}
	if len(events) < 2 {
		f.Fatal("WireSamples lost its event messages")
	}
	batch := func(version byte, inner ...[]byte) []byte {
		frame := wire.AppendUvarint([]byte{version, retiredBatchType}, uint64(len(inner)))
		for _, e := range inner {
			frame = append(frame, e...)
		}
		return frame
	}
	valid := batch(1, events...)
	for _, frame := range [][]byte{
		valid,
		batch(1, events[0], events[0]),
		batch(1, events[1], events[1]),
		batch(WireVersion, events...),
	} {
		f.Add(frame)
	}
	// Headers claiming huge batches backed by a few bytes.
	for _, claim := range []uint64{3, 255, 1 << 16, 1 << 30, 1<<64 - 1} {
		frame := wire.AppendUvarint([]byte{WireVersion, retiredBatchType}, claim)
		f.Add(append(frame, valid[3:10]...))
	}
	for _, cut := range []int{2, 3, 4, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	// A batch carrying a heartbeat, and a batch nesting a batch.
	f.Add(batch(1, []byte{byte(MsgHeartbeat)}))
	f.Add(batch(1, []byte{retiredBatchType}))
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeMessage(data)
		if err != nil {
			return
		}
		if data[0] != WireVersion || data[1] == retiredBatchType {
			t.Fatalf("retired frame %x decoded as %#v", data, msg)
		}
	})
}
