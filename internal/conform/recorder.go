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
	"github.com/dps-overlay/dps/internal/workload"
)

// deliverShards spreads the delivery log across independently locked
// shards (by recipient id): under a publish storm every node goroutine
// fires delivery hooks back-to-back as each drained burst of events is
// handled, and a single log mutex becomes the contention point the
// throughput experiment would end up measuring instead of the engines.
const deliverShards = 16

// deliverShard is one lock's worth of delivery log.
type deliverShard struct {
	mu sync.Mutex
	// delivered maps each (event, node) pair to the step of its first
	// delivery.
	delivered map[core.EventID]map[sim.NodeID]int64

	// Wall-clock latency accounting for the throughput experiment:
	// one sample per (event, node) first delivery of a stamped event.
	// Conformance runs never stamp, so these stay empty there.
	latencies   []time.Duration
	deliverAt   []time.Time // arrival-ordered wall-times of stamped pairs
	lastDeliver time.Time
	pairCount   int
	// repeats counts deliveries of a pair already delivered.
	repeats int
}

// recorder is the per-run delivery oracle of every engine run, chaos
// and paper figure alike: it mirrors every subscription in a semtree
// forest, registers each tracked event's expected recipients and publish
// step at publish time, and logs the step of every pair's first
// delivery. From those it answers the delivery ratio (overall and per
// publish window), the publish-to-delivery step latencies, and the
// differential oracle's delivered sets. Hook callbacks arrive on engine
// workers and peer/transport goroutines, so the log is mutex-guarded;
// everything else is runner-goroutine only.
type recorder struct {
	oracle *semtree.Forest

	shards [deliverShards]deliverShard

	// pubAt is stamped by publishAt on the runner goroutine and read by
	// every delivery hook; read-mostly once the storm is underway.
	pubMu sync.RWMutex
	pubAt map[core.EventID]time.Time

	order    []core.EventID
	pubStep  map[core.EventID]int64
	expected map[core.EventID]map[sim.NodeID]bool
	// deadMatching lists, per event, the matching subscribers that were
	// dead at publish — the oracle's set minus expected — and holds an
	// entry only for events that have any.
	deadMatching map[core.EventID][]sim.NodeID
}

func newRecorder() *recorder {
	r := &recorder{
		oracle:       semtree.New(),
		pubAt:        make(map[core.EventID]time.Time),
		pubStep:      make(map[core.EventID]int64),
		expected:     make(map[core.EventID]map[sim.NodeID]bool),
		deadMatching: make(map[core.EventID][]sim.NodeID),
	}
	for i := range r.shards {
		r.shards[i].delivered = make(map[core.EventID]map[sim.NodeID]int64)
	}
	return r
}

// publishAt stamps an event's publish wall-time, arming per-delivery
// latency sampling for it in deliver.
func (r *recorder) publishAt(ev core.EventID, at time.Time) {
	r.pubMu.Lock()
	r.pubAt[ev] = at
	r.pubMu.Unlock()
}

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
// the dead rest goes to deadMatching.
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

// deliver logs one delivery hook firing at step (any goroutine). Only a
// pair's first delivery counts; a delivery logged before its event's
// publish registers counts once the publish does.
func (r *recorder) deliver(ev core.EventID, id sim.NodeID, step int64) {
	s := &r.shards[uint64(id)%deliverShards]
	s.mu.Lock()
	m := s.delivered[ev]
	if m == nil {
		m = make(map[sim.NodeID]int64)
		s.delivered[ev] = m
	}
	if _, seen := m[id]; seen {
		s.repeats++
	} else {
		m[id] = step
		s.pairCount++
		r.pubMu.RLock()
		t0, ok := r.pubAt[ev]
		r.pubMu.RUnlock()
		if ok {
			now := time.Now()
			s.latencies = append(s.latencies, now.Sub(t0))
			s.deliverAt = append(s.deliverAt, now)
			s.lastDeliver = now
		}
	}
	s.mu.Unlock()
}

// ratio returns delivered/expected pairs over every tracked event; 1
// when nothing was expected.
func (r *recorder) ratio() float64 { return r.windowRatio(math.MinInt64, math.MaxInt64) }

// windowRatio restricts ratio to the events published in steps
// [from, to).
func (r *recorder) windowRatio(from, to int64) float64 {
	var expected, delivered int
	for _, ev := range r.order {
		if step := r.pubStep[ev]; step < from || step >= to {
			continue
		}
		exp := r.expected[ev]
		expected += len(exp)
		for i := range r.shards {
			s := &r.shards[i]
			s.mu.Lock()
			for id := range s.delivered[ev] {
				if exp[id] {
					delivered++
				}
			}
			s.mu.Unlock()
		}
	}
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
	for _, ev := range r.order {
		pub, exp := r.pubStep[ev], r.expected[ev]
		for id, at := range r.deliveredFor(ev) {
			if exp[id] && at >= pub {
				out = append(out, at-pub)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// deliveredFor merges one event's delivered set, with each pair's
// first-delivery step, across shards.
func (r *recorder) deliveredFor(ev core.EventID) map[sim.NodeID]int64 {
	out := make(map[sim.NodeID]int64)
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for id, at := range s.delivered[ev] {
			out[id] = at
		}
		s.mu.Unlock()
	}
	return out
}

// latencySummary snapshots the latency samples of stamped events: the
// pair count, the sorted sample slice, the arrival-ordered delivery
// wall-times, and the last delivery wall-time.
func (r *recorder) latencySummary() (pairs int, sorted []time.Duration, arrivals []time.Time, last time.Time) {
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		sorted = append(sorted, s.latencies...)
		arrivals = append(arrivals, s.deliverAt...)
		if s.lastDeliver.After(last) {
			last = s.lastDeliver
		}
		s.mu.Unlock()
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].Before(arrivals[j]) })
	return len(sorted), sorted, arrivals, last
}

// deliveredCount reports the total delivered pairs so far (any
// goroutine) — the drain detector's progress counter.
func (r *recorder) deliveredCount() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		n += s.pairCount
		s.mu.Unlock()
	}
	return n
}

// repeats totals the repeated deliveries across shards.
func (r *recorder) repeats() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		n += s.repeats
		s.mu.Unlock()
	}
	return n
}

// deliverySummary freezes the recorder into the run record's counters.
func (r *recorder) deliverySummary() (events int, expectedPairs, deliveredPairs, falseDeliveries int) {
	events = len(r.order)
	for _, ev := range r.order {
		expectedPairs += len(r.expected[ev])
		for id := range r.deliveredFor(ev) {
			if r.expected[ev][id] {
				deliveredPairs++
			} else if !slices.Contains(r.deadMatching[ev], id) {
				falseDeliveries++
			}
		}
	}
	return events, expectedPairs, deliveredPairs, falseDeliveries
}

// deliveredSets snapshots the per-event delivered sets restricted to
// expected recipients — the unit of cross-engine comparison.
func (r *recorder) deliveredSets() map[core.EventID]map[sim.NodeID]bool {
	out := make(map[core.EventID]map[sim.NodeID]bool, len(r.order))
	for _, ev := range r.order {
		got := r.deliveredFor(ev)
		set := make(map[sim.NodeID]bool, len(got))
		for id := range got {
			if r.expected[ev][id] {
				set[id] = true
			}
		}
		out[ev] = set
	}
	return out
}

// expectedCounts snapshots the per-event expected-recipient counts.
func (r *recorder) expectedCounts() map[core.EventID]int {
	out := make(map[core.EventID]int, len(r.order))
	for _, ev := range r.order {
		out[ev] = len(r.expected[ev])
	}
	return out
}

// population is the deployment-side bookkeeping every engine shares:
// sequential id allocation, durable-subscription memory for restarts, and
// the workload generator joins draw from. All access happens on the
// runner goroutine.
type population struct {
	gen     *workload.Generator
	perNode int
	nextID  sim.NodeID
	subs    map[sim.NodeID][]filter.Subscription
}

func newPopulation(gen *workload.Generator, perNode int) *population {
	return &population{
		gen:     gen,
		perNode: perNode,
		subs:    make(map[sim.NodeID][]filter.Subscription),
	}
}

func (p *population) allocID() sim.NodeID {
	p.nextID++
	return p.nextID
}

func (p *population) remember(id sim.NodeID, sub filter.Subscription) {
	p.subs[id] = append(p.subs[id], sub)
}

func (p *population) forget(id sim.NodeID) []filter.Subscription {
	subs := p.subs[id]
	delete(p.subs, id)
	return subs
}

func (p *population) durable(id sim.NodeID) []filter.Subscription {
	return p.subs[id]
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
