package metrics

import (
	"sort"
	"sync"
)

// EventID identifies a published event for delivery accounting.
type EventID int64

// DeliveryTracker measures the paper's dependability metric: the ratio of
// correctly delivered events, i.e. the fraction of (event, alive matching
// subscriber) pairs where the subscriber was actually notified. Expected
// recipient sets are computed by the caller against the oracle at publish
// time (subscribers alive when the event enters the system).
type DeliveryTracker struct {
	mu        sync.Mutex
	expected  map[EventID]map[int64]bool
	delivered map[EventID]map[int64]bool
	published map[EventID]int64 // publish step, for windowed ratios
	latencies []int64           // per-delivery steps (DeliverAt)
}

// NewDeliveryTracker returns an empty tracker.
func NewDeliveryTracker() *DeliveryTracker {
	return &DeliveryTracker{
		expected:  make(map[EventID]map[int64]bool),
		delivered: make(map[EventID]map[int64]bool),
		published: make(map[EventID]int64),
	}
}

// Publish registers an event published at the given step with its expected
// recipients. Events with no expected recipient are tracked but contribute
// nothing to ratios.
func (d *DeliveryTracker) Publish(id EventID, step int64, expected []int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	exp := make(map[int64]bool, len(expected))
	for _, n := range expected {
		exp[n] = true
	}
	d.expected[id] = exp
	d.published[id] = step
}

// Deliver records that node received (and matched) the event. Deliveries
// to nodes outside the expected set — false positives or racing
// subscribers — are ignored by the ratio.
func (d *DeliveryTracker) Deliver(id EventID, node int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.expected[id][node] {
		return
	}
	m, ok := d.delivered[id]
	if !ok {
		m = make(map[int64]bool)
		d.delivered[id] = m
	}
	m[node] = true
}

// Ratio returns delivered/expected over every tracked event; 1 when
// nothing was expected.
func (d *DeliveryTracker) Ratio() float64 {
	return d.WindowRatio(0, 1<<62)
}

// WindowRatio returns delivered/expected restricted to events published in
// [from, to); 1 when nothing was expected there.
func (d *DeliveryTracker) WindowRatio(from, to int64) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var exp, del int64
	for id, e := range d.expected {
		step := d.published[id]
		if step < from || step >= to {
			continue
		}
		exp += int64(len(e))
		del += int64(len(d.delivered[id]))
	}
	if exp == 0 {
		return 1
	}
	return float64(del) / float64(exp)
}

// Events returns the number of tracked events.
func (d *DeliveryTracker) Events() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.expected)
}

// DeliveredPairs returns the full delivered set as a map from event to
// its sorted recipient list — the trace a delivered-set equivalence test
// compares across runs (covering on vs off, engine vs engine).
func (d *DeliveryTracker) DeliveredPairs() map[EventID][]int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[EventID][]int64, len(d.delivered))
	for id, nodes := range d.delivered {
		if len(nodes) == 0 {
			continue
		}
		list := make([]int64, 0, len(nodes))
		for n := range nodes {
			list = append(list, n)
		}
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		out[id] = list
	}
	return out
}

// Forget drops events published before the step, bounding memory in long
// runs once their window has been reported.
func (d *DeliveryTracker) Forget(before int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for id, step := range d.published {
		if step < before {
			delete(d.expected, id)
			delete(d.delivered, id)
			delete(d.published, id)
		}
	}
}

// Latencies returns the per-delivery latencies (delivery step minus
// publish step) recorded through DeliverAt, for latency experiments.
func (d *DeliveryTracker) Latencies() []int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]int64, len(d.latencies))
	copy(out, d.latencies)
	return out
}

// DeliverAt records a delivery with its step, accumulating latency
// relative to the publish step in addition to Deliver's bookkeeping.
func (d *DeliveryTracker) DeliverAt(id EventID, node int64, step int64) {
	d.mu.Lock()
	if pub, ok := d.published[id]; ok && d.expected[id][node] {
		if m, okD := d.delivered[id]; !okD || !m[node] {
			d.latencies = append(d.latencies, step-pub)
		}
	}
	d.mu.Unlock()
	d.Deliver(id, node)
}
