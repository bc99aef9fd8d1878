package core

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden wire vectors")

// goldenVector is one pinned encoding in testdata/wire_vectors.json.
type goldenVector struct {
	Type MsgType `json:"type"`
	Name string  `json:"name"`
	Hex  string  `json:"hex"`
}

const goldenPath = "testdata/wire_vectors.json"

// TestWireGoldenVectors pins the byte layout of every protocol message:
// any codec change that alters the wire format fails here loudly, and
// must come with a WireVersion bump plus a deliberate regeneration
// (go test ./internal/core -run TestWireGoldenVectors -update).
func TestWireGoldenVectors(t *testing.T) {
	samples := WireSamples()
	if *updateGolden {
		vectors := make([]goldenVector, 0, len(samples))
		for _, s := range samples {
			data, err := AppendMessage(nil, s)
			if err != nil {
				t.Fatalf("encoding %T: %v", s, err)
			}
			vectors = append(vectors, goldenVector{
				Type: s.(message).msgType(),
				Name: s.(message).msgType().String(),
				Hex:  hex.EncodeToString(data),
			})
		}
		blob, err := json.MarshalIndent(vectors, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden vectors (run with -update to generate): %v", err)
	}
	var vectors []goldenVector
	if err := json.Unmarshal(blob, &vectors); err != nil {
		t.Fatal(err)
	}
	if len(vectors) != len(samples) {
		t.Fatalf("golden file has %d vectors, WireSamples has %d — a message type was added or removed without -update",
			len(vectors), len(samples))
	}
	seen := map[MsgType]bool{}
	for i, s := range samples {
		m := s.(message)
		v := vectors[i]
		if v.Type != m.msgType() || v.Name != m.msgType().String() {
			t.Fatalf("vector %d is %s(%d), sample is %s(%d)", i, v.Name, v.Type, m.msgType(), m.msgType())
		}
		seen[v.Type] = true
		got, err := AppendMessage(nil, s)
		if err != nil {
			t.Fatalf("encoding %s: %v", v.Name, err)
		}
		want, err := hex.DecodeString(v.Hex)
		if err != nil {
			t.Fatalf("vector %s: bad hex: %v", v.Name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("WIRE FORMAT DRIFT for %s:\n  pinned: %x\n  got:    %x\n"+
				"If this change is deliberate, bump WireVersion and regenerate with -update.",
				v.Name, want, got)
		}
		back, err := DecodeMessage(want)
		if err != nil {
			t.Fatalf("decoding pinned %s bytes: %v", v.Name, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Errorf("%s: decode(pinned bytes) = %#v, want %#v", v.Name, back, s)
		}
	}
	// Every MsgType must be pinned — a new message type cannot ship
	// without a golden vector.
	for typ := MsgType(1); typ <= msgTypeMax; typ++ {
		if !seen[typ] {
			t.Errorf("message type %s(%d) has no golden vector", typ, typ)
		}
	}
}

// TestWireSamplesCoverEveryType guards the fixture itself.
func TestWireSamplesCoverEveryType(t *testing.T) {
	seen := map[MsgType]bool{}
	for _, s := range WireSamples() {
		seen[s.(message).msgType()] = true
	}
	for typ := MsgType(1); typ <= msgTypeMax; typ++ {
		if !seen[typ] {
			t.Errorf("WireSamples lacks an instance of %s(%d)", typ, typ)
		}
	}
}

// --- Round-trip property test ---------------------------------------------

// randFilter draws a random canonical attribute filter (or, rarely, the
// zero filter, which several message fields use as "unset").
func randFilter(rng *rand.Rand, allowZero bool) filter.AttrFilter {
	attrs := []string{"a", "price", "sym", "long-attribute-name"}
	attr := attrs[rng.Intn(len(attrs))]
	switch n := rng.Intn(8); {
	case n == 0 && allowZero:
		return filter.AttrFilter{}
	case n == 1:
		return filter.UniversalFilter(attr)
	case n == 2:
		return filter.MustAttrFilter(attr, filter.Gt(attr, 10), filter.Lt(attr, 5)) // empty
	case n == 3:
		return filter.MustAttrFilter(attr, filter.EqInt(attr, rng.Int63n(1000)-500))
	case n == 4:
		lo := rng.Int63n(100)
		return filter.MustAttrFilter(attr, filter.Gt(attr, lo), filter.Lt(attr, lo+3+rng.Int63n(100)))
	case n == 5:
		return filter.MustAttrFilter(attr, filter.Prefix(attr, randString(rng)))
	case n == 6:
		return filter.MustAttrFilter(attr, filter.Suffix(attr, randString(rng)))
	default:
		return filter.MustAttrFilter(attr, filter.EqStr(attr, randString(rng)))
	}
}

func randString(rng *rand.Rand) string {
	const alphabet = "abcxyz0189 _%|\x00é✓"
	b := make([]byte, rng.Intn(12))
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

func randNodeIDs(rng *rand.Rand) []sim.NodeID {
	n := rng.Intn(5)
	if n == 0 {
		return nil
	}
	ids := make([]sim.NodeID, n)
	for i := range ids {
		ids[i] = sim.NodeID(rng.Int63n(1 << 40))
	}
	return ids
}

func randBranch(rng *rand.Rand) Branch {
	return Branch{AF: randFilter(rng, false), Nodes: randNodeIDs(rng)}
}

func randBranches(rng *rand.Rand) []Branch {
	n := rng.Intn(4)
	if n == 0 {
		return nil
	}
	bs := make([]Branch, n)
	for i := range bs {
		bs[i] = randBranch(rng)
	}
	return bs
}

func randEvent(rng *rand.Rand) filter.Event {
	attrs := []string{"a", "price", "sym", "zone"}
	n := 1 + rng.Intn(3)
	assigns := make([]filter.Assignment, 0, n)
	used := map[string]bool{}
	for len(assigns) < n {
		attr := attrs[rng.Intn(len(attrs))]
		if used[attr] {
			continue
		}
		used[attr] = true
		if rng.Intn(2) == 0 {
			assigns = append(assigns, filter.Assignment{Attr: attr, Val: filter.IntValue(rng.Int63())})
		} else {
			assigns = append(assigns, filter.Assignment{Attr: attr, Val: filter.StringValue(randString(rng))})
		}
	}
	return filter.MustEvent(assigns...)
}

func randMode(rng *rand.Rand) TraversalMode {
	if rng.Intn(2) == 0 {
		return RootBased
	}
	return Generic
}

// randMessage draws a random instance of the given message type.
func randMessage(rng *rand.Rand, typ MsgType) message {
	id := sim.NodeID(rng.Int63n(1 << 32))
	switch typ {
	case MsgFindGroup:
		return findGroup{AF: randFilter(rng, false), At: randFilter(rng, true),
			Subscriber: id, Mode: randMode(rng), Hops: rng.Intn(128), Probe: rng.Intn(2) == 0}
	case MsgJoinAccept:
		return joinAccept{AF: randFilter(rng, false), Wanted: randFilter(rng, true), Leader: id,
			CoLeaders: randNodeIDs(rng), Members: randNodeIDs(rng), Parent: randBranch(rng)}
	case MsgCreateGroup:
		return createGroup{AF: randFilter(rng, false), Parent: randBranch(rng), Adopted: randBranches(rng)}
	case MsgJoinNotify:
		return joinNotify{AF: randFilter(rng, false), Member: id, Gone: rng.Intn(2) == 0}
	case MsgGossipSub:
		return gossipSub{AF: randFilter(rng, false), Member: id, Gone: rng.Intn(2) == 0, Hops: rng.Intn(32)}
	case MsgLeave:
		return leave{AF: randFilter(rng, false), Member: id, Branches: randBranches(rng)}
	case MsgBranchUpdate:
		return branchUpdate{Parent: randFilter(rng, false), Child: randBranch(rng)}
	case MsgPublishTree:
		return publishTree{ID: EventID(rng.Int63()), Event: randEvent(rng), Attr: "price",
			AF: randFilter(rng, true), Mode: randMode(rng), Up: rng.Intn(2) == 0, FromAF: randFilter(rng, true)}
	case MsgPublishGroup:
		return publishGroup{ID: EventID(rng.Int63()), Event: randEvent(rng),
			AF: randFilter(rng, false), Hops: rng.Intn(16)}
	case MsgHeartbeat:
		return heartbeat{}
	case MsgHeartbeatAck:
		return heartbeatAck{}
	case MsgViewExchange:
		return viewExchange{AF: randFilter(rng, false), Members: randNodeIDs(rng),
			Parent: randBranch(rng), Branches: randBranches(rng), Leader: id,
			CoLead: randNodeIDs(rng), Reply: rng.Intn(2) == 0}
	case MsgAdopt:
		return adopt{AF: randFilter(rng, false), NewParent: randBranch(rng)}
	case MsgCoLeaderUpdate:
		return coLeaderUpdate{AF: randFilter(rng, false), Leader: id, CoLeaders: randNodeIDs(rng)}
	case MsgRehome:
		return rehome{AF: randFilter(rng, false)}
	case MsgRootInvite:
		return rootInvite{Attr: "price", Leader: id, CoLeaders: randNodeIDs(rng),
			Members: randNodeIDs(rng), Branches: randBranches(rng)}
	default:
		panic(fmt.Sprintf("randMessage: unhandled type %d", typ))
	}
}

// TestWireRoundTripProperty round-trips randomized instances of every
// protocol message type: decode(encode(m)) must reproduce m exactly, and
// re-encoding must be byte-stable.
func TestWireRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	for typ := MsgType(1); typ <= msgTypeMax; typ++ {
		t.Run(typ.String(), func(t *testing.T) {
			for i := 0; i < 200; i++ {
				msg := randMessage(rng, typ)
				data, err := AppendMessage(nil, msg)
				if err != nil {
					t.Fatalf("encode %#v: %v", msg, err)
				}
				back, err := DecodeMessage(data)
				if err != nil {
					t.Fatalf("decode %#v (bytes %x): %v", msg, data, err)
				}
				if !reflect.DeepEqual(back, msg) {
					t.Fatalf("round trip changed the message:\n  sent: %#v\n  got:  %#v", msg, back)
				}
				again, err := AppendMessage(nil, back)
				if err != nil {
					t.Fatalf("re-encode: %v", err)
				}
				if !bytes.Equal(again, data) {
					t.Fatalf("re-encoding is not byte-stable:\n  first:  %x\n  second: %x", data, again)
				}
			}
		})
	}
}

// TestDecodeMessageRejectsMalformedInput exercises the decoder's failure
// discipline: errors, never panics, on truncated, corrupt or oversized
// inputs.
func TestDecodeMessageRejectsMalformedInput(t *testing.T) {
	if _, err := DecodeMessage(nil); err == nil {
		t.Error("empty buffer decoded")
	}
	if _, err := DecodeMessage([]byte{WireVersion}); err == nil {
		t.Error("header-only buffer decoded")
	}
	if _, err := DecodeMessage([]byte{WireVersion + 1, byte(MsgHeartbeat), 0}); err == nil {
		t.Error("future wire version decoded")
	}
	if _, err := DecodeMessage([]byte{WireVersion, 0, 0}); err == nil {
		t.Error("message type 0 decoded")
	}
	if _, err := DecodeMessage([]byte{WireVersion, byte(msgTypeMax) + 1, 0}); err == nil {
		t.Error("unknown message type decoded")
	}
	// The retired batched-events type at the current version, and a
	// complete version-1 frame: what a peer still on wire version 1 sends.
	if _, err := DecodeMessage([]byte{WireVersion, retiredBatchType, 1, byte(MsgHeartbeat)}); err == nil {
		t.Error("retired batched-events frame decoded")
	}
	if _, err := DecodeMessage([]byte{1, byte(MsgHeartbeat)}); err == nil {
		t.Error("version-1 frame decoded")
	}
	// Trailing garbage after a valid message.
	data, err := AppendMessage(nil, heartbeat{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMessage(append(data, 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Truncations of every sample must error, never panic.
	for _, s := range WireSamples() {
		data, err := AppendMessage(nil, s)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(data); cut++ {
			if _, err := DecodeMessage(data[:cut]); err == nil {
				// A prefix that happens to parse as a complete shorter
				// message would be suspicious for these samples.
				t.Errorf("%T truncated to %d bytes decoded cleanly", s, cut)
			}
		}
	}
	// Unencodable payloads are rejected.
	if _, err := AppendMessage(nil, "not a protocol message"); err == nil {
		t.Error("foreign payload encoded")
	}
}

// TestDecodeMessageBoundsAllocation pins the decoder's allocation
// discipline against count-amplification: a frame claiming a huge list
// must be rejected by the element-size-aware length check without the
// up-front allocation the claimed count would imply.
func TestDecodeMessageBoundsAllocation(t *testing.T) {
	af := filter.MustAttrFilter("a", filter.EqInt("a", 1))
	// A leave frame whose branch count claims ~1M entries in a few bytes.
	data, err := AppendMessage(nil, leave{AF: af, Member: 1})
	if err != nil {
		t.Fatal(err)
	}
	data = data[:len(data)-1]                // strip the honest 0 branch count
	data = append(data, 0xF6, 0xFF, 0x3F)    // uvarint 1_048_566
	data = append(data, make([]byte, 64)...) // a little body, nowhere near 3 MB
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := DecodeMessage(data); err == nil {
			t.Fatal("hostile branch count decoded")
		}
	})
	// The old behaviour allocated a ~92 MB slice up front (count × branch
	// size); the sized length check must fail long before that.
	if allocs > 50 {
		t.Fatalf("hostile frame cost %.0f allocations", allocs)
	}
}
