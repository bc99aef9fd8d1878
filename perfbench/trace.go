package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// spanKind names one layer boundary the benchmark times from outside
// the program.
type spanKind uint8

const (
	spanEvent     spanKind = iota // core.Node.OnMessage with an event message
	spanControl                   // core.Node.OnMessage with any other message
	spanTick                      // core.Node.OnTick
	spanPublish                   // core.Node.Publish
	spanSubscribe                 // core.Node.Subscribe
	spanSend                      // sim.Env.Send as the node sees it
	spanDir                       // one core.Directory call
	spanStep                      // the benchmark's call to sim.Engine.Step
	spanDo                        // the benchmark's call to livenet.Peer.Do / tcpnet.Transport.Do
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"core.OnMessage.event", "core.OnMessage.control", "core.OnTick", "core.Publish",
	"core.Subscribe", "engine.Send", "core.Directory", "engine.Step", "engine.Do",
}

// handler reports whether the kind is a node entry point: its duration
// counts as node busy time and is excluded from the self time of the benchmark's call that ran it.
func (k spanKind) handler() bool { return k <= spanSubscribe }

// spanAgg aggregates every span of one kind.
type spanAgg struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

func (a *spanAgg) add(b spanAgg) {
	a.Count += b.Count
	a.TotalNs += b.TotalNs
	a.SelfNs += b.SelfNs
}

func (a spanAgg) meanNs() float64 { return ratio(float64(a.TotalNs), float64(a.Count)) }
func (a spanAgg) meanSelfNs() float64 {
	return ratio(float64(a.SelfNs), float64(a.Count))
}

// rawSpan is one sampled span as written to the trace file. Spans of one
// event share Trace (the core.EventID); Parent links a Send or Directory
// span to the handler span that caused it.
type rawSpan struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  int64  `json:"trace,omitempty"`
	Name   string `json:"name"`
	Lane   int64  `json:"lane"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer owns the clock epoch and the switch every lane consults. The
// switch lets one run measure the same cluster untraced and then traced.
type Tracer struct {
	now     func() int64 // nanoseconds on a monotonic clock
	enabled atomic.Bool
	// handlerNs accumulates the duration of top-level handler spans, so
	// the benchmark can subtract them from the Step span that ran them.
	handlerNs atomic.Int64
	// kept counts the raw spans the lanes hold together.
	kept  atomic.Int64
	lanes []*lane
}

// Raw spans kept: one top-level span tree in spanSampleEvery, until the
// lanes together hold spanBudget spans, so a traced run's memory stays
// bounded.
const (
	spanSampleEvery = 101
	spanBudget      = 50_000
)

func newTracer() *Tracer {
	epoch := time.Now()
	now := func() int64 { return int64(time.Since(epoch)) }
	return &Tracer{now: now}
}

func (t *Tracer) on() bool          { return t.enabled.Load() }
func (t *Tracer) set(on bool)       { t.enabled.Store(on) }
func (t *Tracer) handlerSum() int64 { return t.handlerNs.Load() }

// newLane returns a recorder for one goroutine's spans. Lanes are
// created before the run starts; each is then used by one goroutine.
func (t *Tracer) newLane(id int64) *lane {
	l := &lane{tr: t, id: id}
	t.lanes = append(t.lanes, l)
	return l
}

// frame is one open span on a lane's stack.
type frame struct {
	kind     spanKind
	id       uint64
	start    int64
	childNs  int64
	trace    int64
	sampled  bool
	rawStart int // index of the first raw span recorded under this frame
}

// lane records the spans of one goroutine (one node, or the benchmark's own calls):
// aggregates per kind, a sampled subset of raw spans, and the busy time
// of top-level handler spans.
type lane struct {
	tr     *Tracer
	id     int64
	agg    [numSpanKinds]spanAgg
	stack  []frame
	raw    []rawSpan
	roots  int64
	nextID uint64
	busyNs int64
	// dirCalls counts directory calls made under each handler kind.
	dirCalls [numSpanKinds]int64
}

func (l *lane) depth() int { return len(l.stack) }

// begin opens a span.
func (l *lane) begin(kind spanKind) {
	l.nextID++
	f := frame{kind: kind, id: uint64(l.id)<<32 | l.nextID, start: l.tr.now(), rawStart: len(l.raw)}
	if len(l.stack) == 0 {
		l.roots++
		f.sampled = l.roots%spanSampleEvery == 1 && l.tr.kept.Load() < spanBudget
	} else {
		f.sampled = l.stack[len(l.stack)-1].sampled
	}
	l.stack = append(l.stack, f)
}

// end closes the innermost span and returns its duration. Its self time
// is the duration minus the time its child spans took.
func (l *lane) end() int64 {
	n := len(l.stack) - 1
	f := l.stack[n]
	l.stack = l.stack[:n]
	stop := l.tr.now()
	dur := stop - f.start
	a := &l.agg[f.kind]
	a.Count++
	a.TotalNs += dur
	a.SelfNs += dur - f.childNs
	var parent uint64
	if n > 0 {
		p := &l.stack[n-1]
		p.childNs += dur
		parent = p.id
		if f.kind == spanDir {
			l.dirCalls[p.kind]++
		}
	} else if f.kind.handler() {
		l.busyNs += dur
		l.tr.handlerNs.Add(dur)
	}
	if f.sampled {
		// Children close before their parent learns its event id, so the
		// parent stamps its id on the spans recorded under it.
		for i := f.rawStart; i < len(l.raw); i++ {
			if l.raw[i].Trace == 0 {
				l.raw[i].Trace = f.trace
			}
		}
		l.tr.kept.Add(1)
		l.raw = append(l.raw, rawSpan{ID: f.id, Parent: parent, Trace: f.trace,
			Name: spanNames[f.kind], Lane: l.id, Start: f.start, End: stop})
	}
	return dur
}

// addCallSpan records a call by the benchmark whose nested program work ran on
// other lanes: self is the call's duration minus that work.
func (l *lane) addCallSpan(kind spanKind, dur, self int64) {
	a := &l.agg[kind]
	a.Count++
	a.TotalNs += dur
	a.SelfNs += self
}

// tagEvent attaches an event id to the innermost open span: the hooks
// core fires inside a handler name the event that handler serves.
func (l *lane) tagEvent(id int64) {
	if n := len(l.stack); n > 0 {
		l.stack[n-1].trace = id
	}
}

// traceSummary is the merged view of every lane.
type traceSummary struct {
	Agg      [numSpanKinds]spanAgg
	DirCalls [numSpanKinds]int64
	BusyMax  int64 // busiest node lane's handler time
	Raw      []rawSpan
}

// summary merges lanes. Call it only after the goroutines using them
// have been synchronised with (the run has ended or been fenced).
func (t *Tracer) summary() traceSummary {
	var s traceSummary
	for _, l := range t.lanes {
		for k := range l.agg {
			s.Agg[k].add(l.agg[k])
			s.DirCalls[k] += l.dirCalls[k]
		}
		if l.busyNs > s.BusyMax {
			s.BusyMax = l.busyNs
		}
		s.Raw = append(s.Raw, l.raw...)
	}
	sort.Slice(s.Raw, func(i, j int) bool { return s.Raw[i].Start < s.Raw[j].Start })
	return s
}

// reset clears every lane's aggregates (not the raw samples), so a phase
// can be measured on its own.
func (t *Tracer) reset() {
	for _, l := range t.lanes {
		l.agg = [numSpanKinds]spanAgg{}
		l.dirCalls = [numSpanKinds]int64{}
		l.busyNs = 0
	}
}

// writeTrace writes the aggregates and the sampled spans as one JSON
// document, creating the directory as needed.
func writeTrace(path string, stamp machineStamp, s traceSummary) error {
	aggs := make(map[string]spanAgg, numSpanKinds)
	for k, a := range s.Agg {
		aggs[spanNames[k]] = a
	}
	doc := struct {
		Machine machineStamp       `json:"machine"`
		Spans   map[string]spanAgg `json:"aggregates"`
		Raw     []rawSpan          `json:"sampled_spans"`
	}{stamp, aggs, s.Raw}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
