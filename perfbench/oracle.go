package main

import (
	"fmt"
	"sort"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
)

// oracle knows every subscription the benchmark issued and, for each
// event published, the pairs that must be delivered: the subscribers
// alive at publish time with a subscription that matches the event.
type oracle struct {
	subs map[sim.NodeID][]filter.Subscription // current subscriptions
	// ever keeps every subscription a node held during the run: a node
	// that joined or left around a publication may legitimately receive
	// the event, but a node none of whose subscriptions ever matched it
	// has received a false delivery.
	ever   map[sim.NodeID][]filter.Subscription
	events map[core.EventID]*publication
}

// publication is one published event and its expected recipients.
type publication struct {
	ev       filter.Event
	at       int64 // workload clock at publish (due time on the paced phase)
	step     int64
	expected []sim.NodeID
	phase    int
}

func newOracle() *oracle {
	return &oracle{
		subs:   make(map[sim.NodeID][]filter.Subscription),
		ever:   make(map[sim.NodeID][]filter.Subscription),
		events: make(map[core.EventID]*publication),
	}
}

func (o *oracle) subscribe(id sim.NodeID, sub filter.Subscription) {
	o.subs[id] = append(o.subs[id], sub)
	o.ever[id] = append(o.ever[id], sub)
}

// leave drops the node's current subscriptions.
func (o *oracle) leave(id sim.NodeID) { delete(o.subs, id) }

// expect computes the expected recipients of an event published now;
// alive filters out crashed subscribers. The result is sorted by id.
func (o *oracle) expect(ev filter.Event, alive func(sim.NodeID) bool) []sim.NodeID {
	var out []sim.NodeID
	for id, subs := range o.subs {
		if alive != nil && !alive(id) {
			continue
		}
		for _, s := range subs {
			if s.Matches(ev) {
				out = append(out, id)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (o *oracle) record(id core.EventID, p *publication) { o.events[id] = p }

// verdict is the oracle's judgement of a phase's deliveries.
type verdict struct {
	expected  int64 // pairs attempted
	delivered int64 // expected pairs delivered
	extra     int64 // unexpected pairs whose node matched at some time in the run
	dups      int64 // repeated (event, node) deliveries
	falseHits []string
	latencies []float64 // delivery clock minus publication clock, expected pairs only
	steps     []float64 // the same latency in engine steps
}

func (v verdict) missing() int64 { return v.expected - v.delivered }

// judge checks the deliveries of every event published in the given
// phase (phase < 0: all phases) against the expected sets.
func (o *oracle) judge(ds []delivery, phase int) verdict {
	var v verdict
	got := make(map[core.EventID]map[sim.NodeID]bool)
	for _, d := range ds {
		p := o.events[d.ev]
		if p == nil {
			v.falseHits = append(v.falseHits, fmt.Sprintf("event %d (never published) at node %d", d.ev, d.node))
			continue
		}
		if phase >= 0 && p.phase != phase {
			continue
		}
		set := got[d.ev]
		if set == nil {
			set = make(map[sim.NodeID]bool)
			got[d.ev] = set
		}
		if set[d.node] {
			v.dups++
			continue
		}
		set[d.node] = true
		if containsID(p.expected, d.node) {
			v.delivered++
			v.latencies = append(v.latencies, float64(d.at-p.at))
			v.steps = append(v.steps, float64(d.step-p.step))
			continue
		}
		if o.everMatched(d.node, p.ev) {
			v.extra++
			continue
		}
		v.falseHits = append(v.falseHits, fmt.Sprintf("event %d (%v) at node %d", d.ev, p.ev, d.node))
	}
	for _, p := range o.events {
		if phase < 0 || p.phase == phase {
			v.expected += int64(len(p.expected))
		}
	}
	return v
}

func (o *oracle) everMatched(id sim.NodeID, ev filter.Event) bool {
	for _, s := range o.ever[id] {
		if s.Matches(ev) {
			return true
		}
	}
	return false
}

func containsID(sorted []sim.NodeID, id sim.NodeID) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= id })
	return i < len(sorted) && sorted[i] == id
}

// allSubs lists every current subscription (for the filter layer timing).
func (o *oracle) allSubs() []filter.Subscription {
	ids := make([]sim.NodeID, 0, len(o.subs))
	for id := range o.subs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []filter.Subscription
	for _, id := range ids {
		out = append(out, o.subs[id]...)
	}
	return out
}
