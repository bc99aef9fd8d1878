package dps

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
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

func TestNetworkPubSub(t *testing.T) {
	net, err := NewNetwork(Options{TickEvery: time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := net.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	alice, err := net.AddPeer()
	if err != nil {
		t.Fatal(err)
	}
	bob, err := net.AddPeer()
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var got []string
	sub, err := ParseSubscription("price>100 && price<200")
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Subscribe(sub, func(ev Event) {
		mu.Lock()
		got = append(got, ev.String())
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // let the join settle

	match, _ := ParseEvent("price=150, sym=acme")
	noMatch, _ := ParseEvent("price=500, sym=acme")
	if err := bob.Publish(match); err != nil {
		t.Fatal(err)
	}
	if err := bob.Publish(noMatch); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= 1
	}) {
		t.Fatal("matching event never delivered")
	}
	time.Sleep(30 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("deliveries = %v, want exactly the matching event", got)
	}
}

func TestNetworkManyPeers(t *testing.T) {
	net, err := NewNetwork(Options{TickEvery: time.Millisecond, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()

	const n = 20
	var mu sync.Mutex
	delivered := make(map[int64]int)
	peers := make([]*Peer, 0, n)
	for i := 0; i < n; i++ {
		p, err := net.AddPeer()
		if err != nil {
			t.Fatal(err)
		}
		peers = append(peers, p)
		id := p.ID()
		sub, _ := ParseSubscription("load>50")
		if err := p.Subscribe(sub, func(Event) {
			mu.Lock()
			delivered[id]++
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	if net.Peers() != n {
		t.Fatalf("Peers = %d, want %d", net.Peers(), n)
	}
	time.Sleep(60 * time.Millisecond)
	ev, _ := ParseEvent("load=80, host=web1")
	if err := peers[0].Publish(ev); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 3*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(delivered) == n
	}) {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("only %d/%d peers delivered", len(delivered), n)
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	net, err := NewNetwork(Options{TickEvery: time.Millisecond, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	a, _ := net.AddPeer()
	b, _ := net.AddPeer()
	var mu sync.Mutex
	count := 0
	sub, _ := ParseSubscription("x>0")
	if err := a.Subscribe(sub, func(Event) {
		mu.Lock()
		count++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	ev, _ := ParseEvent("x=5")
	_ = b.Publish(ev)
	if !waitFor(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return count == 1
	}) {
		t.Fatal("first event not delivered")
	}
	if err := a.Unsubscribe(sub); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	_ = b.Publish(ev)
	time.Sleep(100 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if count != 1 {
		t.Fatalf("deliveries after unsubscribe = %d, want 1", count)
	}
}

func TestCrashAndSelfHealing(t *testing.T) {
	net, err := NewNetwork(Options{TickEvery: time.Millisecond, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	const n = 8
	var mu sync.Mutex
	delivered := map[int64]int{}
	peers := make([]*Peer, 0, n)
	for i := 0; i < n; i++ {
		p, err := net.AddPeer()
		if err != nil {
			t.Fatal(err)
		}
		peers = append(peers, p)
		id := p.ID()
		sub, _ := ParseSubscription("temp>30")
		if err := p.Subscribe(sub, func(Event) {
			mu.Lock()
			delivered[id]++
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(60 * time.Millisecond)
	// Crash the first peer (likely owner/leader) and let the overlay heal:
	// heartbeat timeout is 2×25 steps at 1ms per step.
	net.Crash(peers[0])
	if net.Peers() != n-1 {
		t.Fatalf("Peers = %d after crash", net.Peers())
	}
	time.Sleep(250 * time.Millisecond)
	ev, _ := ParseEvent("temp=35")
	_ = peers[1].Publish(ev)
	ok := waitFor(t, 3*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(delivered) >= n-2 // allow one straggler mid-heal
	})
	mu.Lock()
	defer mu.Unlock()
	if !ok {
		t.Fatalf("after crash only %d/%d survivors delivered", len(delivered), n-1)
	}
}

func TestValidationErrors(t *testing.T) {
	net, err := NewNetwork(Options{TickEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := net.AddPeer()
	sub, _ := ParseSubscription("x>0")
	if err := p.Subscribe(sub, nil); err == nil {
		t.Error("nil callback accepted")
	}
	if err := p.Unsubscribe(sub); err == nil {
		t.Error("unsubscribing unknown subscription should fail")
	}
	bad, _ := NewSubscription(Gt("a", 10), Lt("a", 5))
	if err := p.Subscribe(bad, func(Event) {}); err == nil {
		t.Error("unsatisfiable subscription accepted")
	}
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddPeer(); err == nil {
		t.Error("AddPeer after Close should fail")
	}
	if err := net.Close(); err != nil {
		t.Error("Close must be idempotent")
	}
}

func TestPredicateConstructorsExported(t *testing.T) {
	sub, err := NewSubscription(
		Gt("a", 1), Ge("b", 2), Lt("c", 3), Le("d", 4),
		EqInt("e", 5), EqStr("f", "x"), HasPrefix("g", "p"),
		HasSuffix("h", "s"), ContainsStr("i", "c"),
	)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvent(
		Assignment{Attr: "a", Val: IntValue(2)},
		Assignment{Attr: "f", Val: StringValue("x")},
	)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Matches(ev) {
		t.Error("partial event must not match the full conjunction")
	}
}

func TestNetworkCovering(t *testing.T) {
	// Leader mode covers: a peer's narrower second subscription rides on
	// its wider first one instead of forming a group, and each
	// subscription is still notified of exactly the events it matches.
	net, err := NewNetwork(Options{TickEvery: time.Millisecond, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := net.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	alice, err := net.AddPeer()
	if err != nil {
		t.Fatal(err)
	}
	bob, err := net.AddPeer()
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	counts := map[string]int{}
	subscribe := func(expr, tag string) {
		sub, err := ParseSubscription(expr)
		if err != nil {
			t.Fatal(err)
		}
		if err := alice.Subscribe(sub, func(ev Event) {
			mu.Lock()
			counts[tag]++
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(30 * time.Millisecond)
	}
	subscribe("price>100", "wide")
	subscribe("price>100 && price<200", "narrow") // covered by the first

	match, _ := ParseEvent("price=150, sym=acme")
	wideOnly, _ := ParseEvent("price=500, sym=acme")
	for _, ev := range []Event{match, wideOnly} {
		if err := bob.Publish(ev); err != nil {
			t.Fatal(err)
		}
	}
	if !waitFor(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return counts["wide"] >= 2 && counts["narrow"] >= 1
	}) {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("covered deliveries incomplete: %v (want wide=2, narrow=1)", counts)
	}
	time.Sleep(30 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if counts["wide"] != 2 || counts["narrow"] != 1 {
		t.Fatalf("deliveries = %v, want wide=2 narrow=1", counts)
	}
}

// TestGenericTraversalSkipsCrashedEntryPoints pins that a Network's
// peers filter directory contacts by liveness, as the conformance
// engine's do: in leader mode nobody suspects a crashed regular member,
// so without the filter it stays a tree entry point forever and the
// generic-traversal publications that draw it are lost.
func TestGenericTraversalSkipsCrashedEntryPoints(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			net, err := NewNetwork(Options{Traversal: Generic, TickEvery: time.Millisecond, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			defer net.Close()
			const n, events = 6, 40
			var mu sync.Mutex
			delivered := map[int64]int{}
			peers := make([]*Peer, 0, n)
			for i := 0; i < n; i++ {
				p, err := net.AddPeer()
				if err != nil {
					t.Fatal(err)
				}
				peers = append(peers, p)
				id := p.ID()
				sub, _ := ParseSubscription("temp>30")
				if err := p.Subscribe(sub, func(Event) {
					mu.Lock()
					delivered[id]++
					mu.Unlock()
				}); err != nil {
					t.Fatal(err)
				}
			}
			time.Sleep(60 * time.Millisecond) // let the group settle
			net.Crash(peers[3])
			net.Crash(peers[4])
			time.Sleep(400 * time.Millisecond)
			for i := 0; i < events; i++ {
				ev, _ := ParseEvent(fmt.Sprintf("temp=%d", 31+i))
				if err := peers[5].Publish(ev); err != nil {
					t.Fatal(err)
				}
			}
			survivors := []*Peer{peers[0], peers[1], peers[2], peers[5]}
			if !waitFor(t, 3*time.Second, func() bool {
				mu.Lock()
				defer mu.Unlock()
				for _, p := range survivors {
					if delivered[p.ID()] < events {
						return false
					}
				}
				return true
			}) {
				mu.Lock()
				defer mu.Unlock()
				t.Errorf("survivors delivered %v of %d events each", delivered, events)
			}
		})
	}
}
