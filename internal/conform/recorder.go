package conform

import (
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/semtree"
	"github.com/dps-overlay/dps/internal/sim"
)

// recorder is the per-run delivery oracle of every engine run, chaos
// and paper figure alike. It mirrors every subscription in a semtree
// forest and registers each tracked event's expected recipients and
// publish step at publish time; each node id keeps one append-only log
// of what its node observed. Every question — the delivery ratio
// (overall and per publish window), the publish-to-delivery latencies,
// the delivered sets, repeats, false deliveries, the throughput
// experiment's wall-clock latencies and Table 1's contacted pairs —
// merges the logs when it is asked. Only a node's own hooks write its
// log (on engine workers or peer and transport goroutines); everything
// else is runner-goroutine only.
type recorder struct {
	oracle *semtree.Forest
	logs   map[sim.NodeID]*nodeLog

	order   []core.EventID
	pubStep map[core.EventID]int64
	// pubAt holds the publish wall-times the throughput experiment
	// stamps; its latency samples are the stamped events' deliveries.
	pubAt    map[core.EventID]time.Time
	expected map[core.EventID]map[sim.NodeID]bool
	// deadMatching lists, per event, the matching subscribers that were
	// dead at publish — the oracle's set minus expected — and holds an
	// entry only for events that have any.
	deadMatching map[core.EventID][]sim.NodeID
}

// nodeLog is everything one node id observed, over all its
// incarnations, in the order it happened: the events it was contacted
// with (first receipts) and its deliveries. The lock is contended only
// by the runner reading while the node's goroutine appends.
type nodeLog struct {
	mu        sync.Mutex
	contacted []core.EventID
	delivered []delivery
}

// delivery is one delivery hook firing: the event, the logical step and
// the wall time.
type delivery struct {
	ev   core.EventID
	step int64
	at   time.Time
}

func newRecorder() *recorder {
	return &recorder{
		oracle:       semtree.New(),
		logs:         make(map[sim.NodeID]*nodeLog),
		pubStep:      make(map[core.EventID]int64),
		pubAt:        make(map[core.EventID]time.Time),
		expected:     make(map[core.EventID]map[sim.NodeID]bool),
		deadMatching: make(map[core.EventID][]sim.NodeID),
	}
}

// log returns the id's log, opening it on first use (runner goroutine;
// the node's hooks hold the returned pointer).
func (r *recorder) log(id sim.NodeID) *nodeLog {
	l := r.logs[id]
	if l == nil {
		l = &nodeLog{}
		r.logs[id] = l
	}
	return l
}

// contact logs the first receipt of an event (any goroutine).
func (l *nodeLog) contact(ev core.EventID) {
	l.mu.Lock()
	l.contacted = append(l.contacted, ev)
	l.mu.Unlock()
}

// deliver logs one delivery of an event at step (any goroutine).
func (l *nodeLog) deliver(ev core.EventID, step int64) {
	at := time.Now()
	l.mu.Lock()
	l.delivered = append(l.delivered, delivery{ev: ev, step: step, at: at})
	l.mu.Unlock()
}

// read returns the log so far. Entries are never rewritten, so the
// slices stay valid to read without the lock while the log grows.
func (l *nodeLog) read() ([]core.EventID, []delivery) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.contacted, l.delivered
}

// eachFirst merges the logs: it calls fn with the first delivery of
// every (event, node) pair, in no particular order, and returns how
// many deliveries repeated a pair already delivered.
func (r *recorder) eachFirst(fn func(id sim.NodeID, d delivery)) (repeats int) {
	seen := make(map[core.EventID]bool)
	for id, l := range r.logs {
		_, ds := l.read()
		clear(seen)
		for _, d := range ds {
			if seen[d.ev] {
				repeats++
				continue
			}
			seen[d.ev] = true
			fn(id, d)
		}
	}
	return repeats
}

// publishAt stamps an event's publish wall-time, making its deliveries
// latency samples.
func (r *recorder) publishAt(ev core.EventID, at time.Time) { r.pubAt[ev] = at }

// subscribe mirrors a subscription in the oracle.
func (r *recorder) subscribe(id sim.NodeID, sub filter.Subscription) error {
	_, err := r.oracle.Subscribe(semtree.MemberID(id), sub)
	return err
}

// leave removes a member from the oracle (graceful departure; crashes
// keep their subscriptions — expected sets filter by liveness instead).
func (r *recorder) leave(id sim.NodeID) {
	r.oracle.RemoveMember(semtree.MemberID(id))
}

// publish registers a tracked event published at step: expected is the
// oracle's ground-truth member set restricted to the nodes alive now, and
// the dead rest goes to deadMatching. A delivery logged before its
// event's publish registers counts once the publish does.
func (r *recorder) publish(ev core.EventID, event filter.Event, alive func(sim.NodeID) bool, step int64) {
	exp := make(map[sim.NodeID]bool)
	var dead []sim.NodeID
	for m := range r.oracle.MatchingMembers(event) {
		id := sim.NodeID(m)
		if alive(id) {
			exp[id] = true
		} else {
			dead = append(dead, id)
		}
	}
	r.order = append(r.order, ev)
	r.pubStep[ev] = step
	r.expected[ev] = exp
	if dead != nil {
		r.deadMatching[ev] = dead
	}
}

// ratio returns delivered/expected pairs over every tracked event; 1
// when nothing was expected.
func (r *recorder) ratio() float64 { return r.windowRatio(math.MinInt64, math.MaxInt64) }

// windowRatio restricts ratio to the events published in steps
// [from, to).
func (r *recorder) windowRatio(from, to int64) float64 {
	in := func(ev core.EventID) bool {
		step := r.pubStep[ev]
		return step >= from && step < to
	}
	var expected, delivered int
	for _, ev := range r.order {
		if in(ev) {
			expected += len(r.expected[ev])
		}
	}
	r.eachFirst(func(id sim.NodeID, d delivery) {
		if r.expected[d.ev][id] && in(d.ev) {
			delivered++
		}
	})
	if expected == 0 {
		return 1
	}
	return float64(delivered) / float64(expected)
}

// latencies returns, in ascending order, the steps from publish to first
// delivery of every delivered expected pair. A pair delivered before its
// publish step has no latency.
func (r *recorder) latencies() []int64 {
	var out []int64
	r.eachFirst(func(id sim.NodeID, d delivery) {
		if pub := r.pubStep[d.ev]; r.expected[d.ev][id] && d.step >= pub {
			out = append(out, d.step-pub)
		}
	})
	slices.Sort(out)
	return out
}

// deliveredFor returns the set of nodes that delivered one event,
// expected or not.
func (r *recorder) deliveredFor(ev core.EventID) map[sim.NodeID]bool {
	out := make(map[sim.NodeID]bool)
	r.eachFirst(func(id sim.NodeID, d delivery) {
		if d.ev == ev {
			out[id] = true
		}
	})
	return out
}

// latencySummary gathers the stamped events' first deliveries: the
// sorted publish-to-delivery latencies, the sorted delivery wall-times,
// and the last of them.
func (r *recorder) latencySummary() (sorted []time.Duration, arrivals []time.Time, last time.Time) {
	r.eachFirst(func(_ sim.NodeID, d delivery) {
		t0, ok := r.pubAt[d.ev]
		if !ok {
			return
		}
		sorted = append(sorted, d.at.Sub(t0))
		arrivals = append(arrivals, d.at)
		if d.at.After(last) {
			last = d.at
		}
	})
	slices.Sort(sorted)
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].Before(arrivals[j]) })
	return sorted, arrivals, last
}

// deliveries counts every delivery logged so far, repeats included —
// the drain detector's progress counter.
func (r *recorder) deliveries() int {
	n := 0
	for _, l := range r.logs {
		_, ds := l.read()
		n += len(ds)
	}
	return n
}

// repeats counts the deliveries of an (event, node) pair already
// delivered.
func (r *recorder) repeats() int {
	return r.eachFirst(func(sim.NodeID, delivery) {})
}

// contactedPairs counts the (event, node) pairs in which the node
// handled the event: Table 1's contacted nodes, summed over events.
func (r *recorder) contactedPairs() int {
	n := 0
	seen := make(map[core.EventID]bool)
	for _, l := range r.logs {
		evs, _ := l.read()
		clear(seen)
		for _, ev := range evs {
			if !seen[ev] {
				seen[ev] = true
				n++
			}
		}
	}
	return n
}

// deliverySummary freezes the recorder into the run record's counters:
// a false delivery reached a node that neither was expected nor
// matched the event while dead.
func (r *recorder) deliverySummary() (events int, expectedPairs, deliveredPairs, falseDeliveries int) {
	events = len(r.order)
	for _, ev := range r.order {
		expectedPairs += len(r.expected[ev])
	}
	r.eachFirst(func(id sim.NodeID, d delivery) {
		exp, tracked := r.expected[d.ev]
		switch {
		case !tracked:
		case exp[id]:
			deliveredPairs++
		case !slices.Contains(r.deadMatching[d.ev], id):
			falseDeliveries++
		}
	})
	return events, expectedPairs, deliveredPairs, falseDeliveries
}

// deliveredSets snapshots the per-event delivered sets restricted to
// expected recipients — the unit of cross-engine comparison.
func (r *recorder) deliveredSets() map[core.EventID]map[sim.NodeID]bool {
	out := make(map[core.EventID]map[sim.NodeID]bool, len(r.order))
	for _, ev := range r.order {
		out[ev] = make(map[sim.NodeID]bool)
	}
	r.eachFirst(func(id sim.NodeID, d delivery) {
		if r.expected[d.ev][id] {
			out[d.ev][id] = true
		}
	})
	return out
}

// sortedIDs returns the keys of a node-set in ascending order.
func sortedIDs[V any](m map[sim.NodeID]V) []sim.NodeID {
	out := make([]sim.NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
