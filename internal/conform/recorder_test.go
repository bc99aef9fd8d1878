package conform

import (
	"reflect"
	"sync"
	"testing"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
)

// testRecorder returns a recorder whose oracle holds nodes 1–3 on
// 0 < x < 10 and node 4 on x > 100, and parses the events that match
// each side: low reaches nodes 1–3, high reaches node 4.
func testRecorder(t *testing.T) (rec *recorder, low, high filter.Event) {
	t.Helper()
	rec = newRecorder()
	for id, expr := range map[sim.NodeID]string{1: "x>0 && x<10", 2: "x>0 && x<10", 3: "x>0 && x<10", 4: "x>100"} {
		sub, err := filter.ParseSubscription(expr)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.subscribe(id, sub); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	if low, err = filter.ParseEvent("x=5"); err != nil {
		t.Fatal(err)
	}
	if high, err = filter.ParseEvent("x=150"); err != nil {
		t.Fatal(err)
	}
	return rec, low, high
}

func allAlive(sim.NodeID) bool { return true }

// TestRecorderRatioCountsExpectedPairs pins the dependability ratio: a
// delivery to a node outside the expected set does not count, a
// repeated delivery counts once, and windowRatio restricts the ratio to
// the events published in a step window (1 when the window expects
// nothing).
func TestRecorderRatioCountsExpectedPairs(t *testing.T) {
	rec, low, high := testRecorder(t)
	rec.publish(1, low, allAlive, 10)  // expects 1, 2, 3
	rec.publish(2, high, allAlive, 20) // expects 4
	rec.log(1).deliver(1, 11)
	rec.log(2).deliver(1, 12)
	rec.log(99).deliver(1, 12) // not expected: ignored by the ratio
	rec.log(4).deliver(2, 21)
	rec.log(4).deliver(2, 22) // repeated: counts once
	if got := rec.ratio(); got != 0.75 {
		t.Errorf("Ratio = %v, want 0.75", got)
	}
	if got := rec.windowRatio(0, 15); got != 2.0/3.0 {
		t.Errorf("WindowRatio early = %v, want 2/3", got)
	}
	if got := rec.windowRatio(15, 30); got != 1 {
		t.Errorf("WindowRatio late = %v, want 1", got)
	}
	if got := rec.windowRatio(100, 200); got != 1 {
		t.Errorf("empty window = %v, want 1", got)
	}
	if got := rec.repeats(); got != 1 {
		t.Errorf("repeats = %d, want 1", got)
	}
}

// TestRecorderRatioWithNothingExpected pins the vacuous ratio: 1 with no
// tracked event, and 1 when the tracked events expect nobody (no
// subscriber matches, or every matching one is dead).
func TestRecorderRatioWithNothingExpected(t *testing.T) {
	rec, low, _ := testRecorder(t)
	if got := rec.ratio(); got != 1 {
		t.Errorf("Ratio of an empty recorder = %v, want 1", got)
	}
	nobody, err := filter.ParseEvent("x=50")
	if err != nil {
		t.Fatal(err)
	}
	rec.publish(1, nobody, allAlive, 0)
	rec.publish(2, low, func(sim.NodeID) bool { return false }, 0)
	if got := rec.ratio(); got != 1 {
		t.Errorf("Ratio with no expectations = %v, want 1", got)
	}
}

// TestRecorderWindowRatioByPublishStep pins that windows select events
// by publish step, not delivery step: an early event delivered late
// still counts in the early window.
func TestRecorderWindowRatioByPublishStep(t *testing.T) {
	rec, low, _ := testRecorder(t)
	rec.publish(1, low, func(id sim.NodeID) bool { return id <= 2 }, 10)
	rec.publish(2, low, func(id sim.NodeID) bool { return id <= 2 }, 100)
	rec.log(1).deliver(1, 20)
	rec.log(2).deliver(1, 150) // delivered after the second event's publish
	rec.log(1).deliver(2, 101)
	if got := rec.windowRatio(0, 50); got != 1 {
		t.Errorf("early window = %v, want 1", got)
	}
	if got := rec.windowRatio(50, 200); got != 0.5 {
		t.Errorf("late window = %v, want 0.5", got)
	}
	if got := rec.windowRatio(500, 600); got != 1 {
		t.Errorf("empty window = %v, want 1 (vacuous)", got)
	}
	if got := rec.ratio(); got != 0.75 {
		t.Errorf("Ratio = %v, want 0.75", got)
	}
}

// TestRecorderLatencyOncePerExpectedPair pins the step latencies: one
// sample per expected pair, taken at its first delivery; unexpected
// recipients and untracked events give none.
func TestRecorderLatencyOncePerExpectedPair(t *testing.T) {
	rec, low, _ := testRecorder(t)
	rec.publish(1, low, allAlive, 100) // expects 1, 2, 3
	rec.log(1).deliver(1, 103)         // latency 3
	rec.log(2).deliver(1, 110)         // latency 10
	rec.log(2).deliver(1, 120)         // repeated delivery: no second sample
	rec.log(9).deliver(1, 105)         // unexpected recipient
	rec.log(1).deliver(2, 105)         // untracked event
	lats := rec.latencies()
	if !reflect.DeepEqual(lats, []int64{3, 10}) {
		t.Fatalf("latencies = %v, want [3 10]", lats)
	}
	if got := rec.ratio(); got != 2.0/3.0 {
		t.Errorf("ratio = %v, want 2/3", got)
	}
	// latencies returns a fresh slice: mutating it must not corrupt the
	// recorder.
	lats[0] = 999
	if again := rec.latencies(); again[0] != 3 {
		t.Error("Latencies exposed internal state")
	}
}

// TestRecorderDeliveryBeforePublish pins a delivery logged before its
// event's publish registers — the throughput experiment registers
// expected sets only after the drain: it must not panic, it counts for
// the ratio once the publish registers, and a pair first delivered
// before its publish step has no latency.
func TestRecorderDeliveryBeforePublish(t *testing.T) {
	rec, low, _ := testRecorder(t)
	rec.log(1).deliver(7, 50)
	if got := len(rec.latencies()); got != 0 {
		t.Errorf("latencies = %d, want 0", got)
	}
	rec.publish(7, low, func(id sim.NodeID) bool { return id == 1 }, 60)
	rec.log(1).deliver(7, 65)
	if got := rec.ratio(); got != 1 {
		t.Errorf("ratio = %v, want 1", got)
	}
	if got := len(rec.latencies()); got != 0 {
		t.Errorf("latencies = %d, want 0 (first delivery precedes the publish step)", got)
	}
}

// TestRecorderConcurrentNodeLogs fires each node's hooks from a
// goroutine of its own, as the live runtimes do, while the runner reads,
// and pins what the merged logs answer. Every event expects nodes 1–8
// and node id skips the events with ev%8 == id-1, so each event misses
// exactly one node; each node delivers its first event twice and is
// contacted with event 1 twice (a restarted incarnation's first
// receipts), which count once.
func TestRecorderConcurrentNodeLogs(t *testing.T) {
	const nodes, events = 8, 1000
	rec := newRecorder()
	sub, err := filter.ParseSubscription("x>0 && x<10")
	if err != nil {
		t.Fatal(err)
	}
	for id := sim.NodeID(1); id <= nodes; id++ {
		if err := rec.subscribe(id, sub); err != nil {
			t.Fatal(err)
		}
	}
	low, err := filter.ParseEvent("x=5")
	if err != nil {
		t.Fatal(err)
	}
	for ev := core.EventID(1); ev <= events; ev++ {
		rec.publish(ev, low, allAlive, int64(ev))
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for id := sim.NodeID(1); id <= nodes; id++ {
		log := rec.log(id)
		wg.Add(1)
		go func(id sim.NodeID) {
			defer wg.Done()
			<-start
			first := true
			for ev := core.EventID(1); ev <= events; ev++ {
				log.contact(ev)
				if int(ev)%nodes == int(id)-1 {
					continue
				}
				log.deliver(ev, int64(ev)+1)
				if first {
					log.deliver(ev, int64(ev)+2)
					first = false
				}
			}
			log.contact(1)
		}(id)
	}
	// Merge the logs while the nodes still append to them.
	close(start)
	const total = nodes*events - events + nodes // deliveries, repeats included
	for rec.deliveries() < total {
		rec.ratio()
	}
	wg.Wait()
	if got := rec.ratio(); got != float64(nodes*events-events)/float64(nodes*events) {
		t.Errorf("ratio = %v, want 7/8", got)
	}
	if got := rec.repeats(); got != nodes {
		t.Errorf("repeats = %d, want %d", got, nodes)
	}
	if got := rec.contactedPairs(); got != nodes*events {
		t.Errorf("contacted pairs = %d, want %d", got, nodes*events)
	}
	if got := len(rec.latencies()); got != nodes*events-events {
		t.Errorf("latency samples = %d, want one per delivered pair", got)
	}
}
