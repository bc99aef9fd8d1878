package conform

import (
	"reflect"
	"testing"

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
	rec.deliver(1, 1, 11)
	rec.deliver(1, 2, 12)
	rec.deliver(1, 99, 12) // not expected: ignored by the ratio
	rec.deliver(2, 4, 21)
	rec.deliver(2, 4, 22) // repeated: counts once
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
	rec.deliver(1, 1, 20)
	rec.deliver(1, 2, 150) // delivered after the second event's publish
	rec.deliver(2, 1, 101)
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
	rec.deliver(1, 1, 103)             // latency 3
	rec.deliver(1, 2, 110)             // latency 10
	rec.deliver(1, 2, 120)             // repeated delivery: no second sample
	rec.deliver(1, 9, 105)             // unexpected recipient
	rec.deliver(2, 1, 105)             // untracked event
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
	rec.deliver(7, 1, 50)
	if got := len(rec.latencies()); got != 0 {
		t.Errorf("latencies = %d, want 0", got)
	}
	rec.publish(7, low, func(id sim.NodeID) bool { return id == 1 }, 60)
	rec.deliver(7, 1, 65)
	if got := rec.ratio(); got != 1 {
		t.Errorf("ratio = %v, want 1", got)
	}
	if got := len(rec.latencies()); got != 0 {
		t.Errorf("latencies = %d, want 0 (first delivery precedes the publish step)", got)
	}
}
