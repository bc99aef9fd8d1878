package tcpnet

import (
	"sync"
	"testing"
	"time"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
)

// tcpNode bundles a core node on a TCP transport for tests.
type tcpNode struct {
	node *core.Node
	tr   *Transport
	dir  *DirectoryClient
}

func startNode(t *testing.T, id sim.NodeID, dirAddr string) *tcpNode {
	t.Helper()
	dc := DialDirectory(dirAddr)
	cfg := core.DefaultConfig()
	cfg.Directory = dc
	node, err := core.NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Config{
		ID:        id,
		Listen:    "127.0.0.1:0",
		TickEvery: time.Millisecond,
		Seed:      int64(id),
	}, node)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = tr.Close()
		_ = dc.Close()
	})
	return &tcpNode{node: node, tr: tr, dir: dc}
}

func connectAll(nodes []*tcpNode) {
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				a.tr.AddPeer(b.tr.cfg.ID, b.tr.Addr())
			}
		}
	}
}

func waitUntil(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

func TestPubSubOverTCP(t *testing.T) {
	dir, err := ListenDirectory("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()

	nodes := []*tcpNode{
		startNode(t, 1, dir.Addr()),
		startNode(t, 2, dir.Addr()),
		startNode(t, 3, dir.Addr()),
	}
	connectAll(nodes)

	var mu sync.Mutex
	got := map[sim.NodeID]int{}
	for i, n := range nodes[:2] {
		id := sim.NodeID(i + 1)
		sub, _ := filter.ParseSubscription("price>100 && price<300")
		nn := n
		if err := nn.tr.Do(func() {
			nn.node.OnDeliverHook(func(_ core.EventID, _ filter.Event) {
				mu.Lock()
				got[id]++
				mu.Unlock()
			})
			if err := nn.node.Subscribe(sub); err != nil {
				t.Error(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the joins to settle across TCP by condition, not by a
	// fixed sleep: both subscribers must hold an active membership with a
	// known leader before the publish goes out.
	settled := func() bool {
		for _, n := range nodes[:2] {
			ok := false
			nn := n
			if err := nn.tr.Do(func() {
				for _, info := range nn.node.Inspect() {
					if info.State == "active" && info.Leader != 0 {
						ok = true
					}
				}
			}); err != nil {
				return false
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if !waitUntil(t, 10*time.Second, settled) {
		t.Fatal("subscriber joins never settled")
	}

	ev, _ := filter.ParseEvent("price=200, sym=acme")
	if err := nodes[2].tr.Do(func() {
		if err := nodes[2].node.Publish(1, ev); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got[1] == 1 && got[2] == 1
	}) {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("deliveries = %v, want both subscribers", got)
	}
}

func TestTransportValidation(t *testing.T) {
	if _, err := New(Config{Listen: "127.0.0.1:0"}, nil); err == nil {
		t.Fatal("zero ID accepted")
	}
	if _, err := New(Config{ID: 1, Listen: "256.0.0.1:bad"}, nil); err == nil {
		t.Fatal("bad listen address accepted")
	}
}

func TestSendToUnknownPeerDrops(t *testing.T) {
	dir, err := ListenDirectory("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	n := startNode(t, 9, dir.Addr())
	if err := n.tr.Do(func() {
		// Force a raw send to a peer the address book does not know.
		env := env{t: n.tr}
		env.Send(12345, heartbeatProbe())
	}); err != nil {
		t.Fatal(err)
	}
	if n.tr.Dropped() == 0 {
		t.Error("send to unknown peer should count as dropped")
	}
}

// heartbeatProbe returns an arbitrary payload for the drop test; the
// send fails on the unknown peer before any encoding happens.
func heartbeatProbe() any {
	ev, _ := filter.ParseEvent("x=1")
	return ev
}

func TestDirectoryServiceRoundTrip(t *testing.T) {
	dir, err := ListenDirectory("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	c := DialDirectory(dir.Addr())
	defer c.Close()

	if _, ok := c.Owner("a"); ok {
		t.Error("fresh directory has an owner")
	}
	if got := c.ClaimOwner("a", 7); got != 7 {
		t.Errorf("ClaimOwner = %d", got)
	}
	if got := c.ClaimOwner("a", 8); got != 7 {
		t.Error("claim displaced the owner")
	}
	c.ReplaceOwner("a", 9)
	if got, ok := c.Owner("a"); !ok || got != 9 {
		t.Errorf("owner = %d, %v", got, ok)
	}
	c.AddContact("a", 1)
	c.AddContact("a", 2)
	if id, ok := c.Contact("a", nil); !ok || (id != 1 && id != 2) {
		t.Errorf("Contact = %d, %v", id, ok)
	}
	c.DropContact("a", 1)
	c.DropContact("a", 2)
	if _, ok := c.Contact("a", nil); ok {
		t.Error("contacts should be exhausted")
	}
}

func TestDirectoryClientSurvivesServerRestartlessFailure(t *testing.T) {
	dir, err := ListenDirectory("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	c := DialDirectory(dir.Addr())
	defer c.Close()
	c.AddContact("a", 1)
	_ = dir.Close()
	// Server gone: lookups degrade to not-found instead of hanging.
	if _, ok := c.Owner("a"); ok {
		t.Error("dead directory should answer not-found")
	}
}

func TestAttrFilterWireRoundTrip(t *testing.T) {
	cases := []filter.AttrFilter{
		filter.MustAttrFilter("a", filter.Gt("a", 2), filter.Lt("a", 20)),
		filter.MustAttrFilter("a", filter.EqInt("a", 4)),
		filter.MustAttrFilter("s", filter.Prefix("s", "ab")),
		filter.UniversalFilter("x"),
		filter.MustAttrFilter("a", filter.Gt("a", 10), filter.Lt("a", 5)), // empty
		{}, // zero
	}
	for _, f := range cases {
		data, err := f.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal %v: %v", f, err)
		}
		var back filter.AttrFilter
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatalf("unmarshal %v: %v", f, err)
		}
		if back.Key() != f.Key() {
			t.Errorf("round trip changed key: %q vs %q", back.Key(), f.Key())
		}
		if back.IsEmpty() != f.IsEmpty() || back.IsUniversal() != f.IsUniversal() {
			t.Errorf("round trip changed flags for %v", f)
		}
	}
}

// echoProc answers every message by sending it back to its sender.
type echoProc struct{ env sim.Env }

func (p *echoProc) Attach(e sim.Env)                 { p.env = e }
func (p *echoProc) OnMessage(from sim.NodeID, m any) { p.env.Send(from, m) }
func (p *echoProc) OnTick()                          {}

// replyProc reports the sender of every message it receives.
type replyProc struct{ from chan sim.NodeID }

func (replyProc) Attach(sim.Env) {}
func (p replyProc) OnMessage(from sim.NodeID, _ any) {
	select {
	case p.from <- from:
	default:
	}
}
func (replyProc) OnTick() {}

// TestReturnPathLearnedFromFrames: a transport never told a sender's
// address replies to it after one frame, because every frame carries the
// sender's listen address; and a sender restarted on a new port is
// learned again from the first frame on its new connection.
func TestReturnPathLearnedFromFrames(t *testing.T) {
	echo, err := New(Config{ID: 2, Listen: "127.0.0.1:0", TickEvery: time.Hour}, &echoProc{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = echo.Close() })

	payload := core.WireSamples()[0]
	// pingUntilReply sends from id 1 until the echo comes back: a reply
	// sent down a connection to a closed port may be lost before the
	// echo side notices the dead link and re-dials.
	pingUntilReply := func(tr *Transport, replies chan sim.NodeID) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if err := tr.Do(func() { tr.send(2, payload) }); err != nil {
				t.Fatal(err)
			}
			select {
			case from := <-replies:
				if from != 2 {
					t.Fatalf("reply from %d, want 2", from)
				}
				return
			case <-time.After(20 * time.Millisecond):
			}
		}
		t.Fatalf("no reply from a transport that was never told %s", tr.Addr())
	}
	book := func() string {
		echo.mu.Lock()
		defer echo.mu.Unlock()
		return echo.book[1]
	}

	start := func() (*Transport, chan sim.NodeID) {
		replies := make(chan sim.NodeID, 1)
		tr, err := New(Config{ID: 1, Listen: "127.0.0.1:0", TickEvery: time.Hour}, replyProc{from: replies})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = tr.Close() })
		tr.AddPeer(2, echo.Addr())
		return tr, replies
	}

	first, replies := start()
	if got := book(); got != "" {
		t.Fatalf("echo side knows id 1 at %q before any frame", got)
	}
	pingUntilReply(first, replies)
	if got := book(); got != first.Addr() {
		t.Errorf("learned %q for id 1, want %q", got, first.Addr())
	}
	_ = first.Close()

	second, replies := start()
	if second.Addr() == first.Addr() {
		t.Skip("restarted sender got the same port; nothing to relearn")
	}
	pingUntilReply(second, replies)
	if got := book(); got != second.Addr() {
		t.Errorf("after restart learned %q for id 1, want %q", got, second.Addr())
	}
}
