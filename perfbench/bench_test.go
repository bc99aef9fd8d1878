package main

import (
	"math"
	"sort"
	"testing"
	"time"

	"github.com/dps-overlay/dps/internal/filter"
)

// runFixed builds a small sim-steady cluster and runs a fixed number of
// steps, traced or not, returning its deliveries and counters.
func runFixed(t *testing.T, traced bool) ([]delivery, nodeCounters) {
	t.Helper()
	tr := newTracer()
	tr.set(traced)
	c := newSimCluster(simShape{nodes: 120, perNode: 2, eventEvery: 10}, 7, tr)
	if err := c.build(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.run(func(i int64) bool { return i < 300 }, 0, nil); err != nil {
		t.Fatal(err)
	}
	c.drain(40)
	if traced && tr.summary().Agg[spanTick].Count == 0 {
		t.Fatal("traced run recorded no tick spans")
	}
	return c.deliveries(), c.counters()
}

// The proxies must not change the program: at a fixed seed the traced
// and untraced runs deliver the same (event, node, step) triples.
func TestTracedRunDeliversSameTrace(t *testing.T) {
	plain, plainCnt := runFixed(t, false)
	traced, tracedCnt := runFixed(t, true)
	key := func(ds []delivery) [][3]int64 {
		out := make([][3]int64, len(ds))
		for i, d := range ds {
			out[i] = [3]int64{int64(d.ev), int64(d.node), d.step}
		}
		sort.Slice(out, func(i, j int) bool {
			a, b := out[i], out[j]
			if a[0] != b[0] {
				return a[0] < b[0]
			}
			return a[1] < b[1]
		})
		return out
	}
	a, b := key(plain), key(traced)
	if len(a) == 0 {
		t.Fatal("no deliveries")
	}
	if len(a) != len(b) {
		t.Fatalf("deliveries: untraced %d, traced %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d: untraced %v, traced %v", i, a[i], b[i])
		}
	}
	if plainCnt != tracedCnt {
		t.Fatalf("counters: untraced %+v, traced %+v", plainCnt, tracedCnt)
	}
}

// A churn cycle crashes, restarts, joins and leaves nodes, waits until
// the overlay is settled again and only then publishes: every expected
// pair is delivered.
func TestChurnCycleDeliversEveryPair(t *testing.T) {
	c := newSimCluster(simShape{nodes: 150, perNode: 2, eventEvery: 5, churn: true}, 11, newTracer())
	if err := c.build(); err != nil {
		t.Fatal(err)
	}
	if err := c.settle(); err != nil {
		t.Fatal(err)
	}
	ch, err := newSimChurn(c, 11)
	if err != nil {
		t.Fatal(err)
	}
	// The run stops at the first cycle end after i >= 2: one cycle.
	ph, err := c.run(func(i int64) bool { return i < 2 }, 0, ch)
	if err != nil {
		t.Fatal(err)
	}
	c.drain(40)
	if len(ch.repairs) != 1 || len(ch.inj.Applied()) == 0 {
		t.Fatalf("%d repairs, %d faults applied; want one repaired churn cycle", len(ch.repairs), len(ch.inj.Applied()))
	}
	// Windows never span two states of the cycle.
	kinds := make(map[int]bool)
	for i, w := range ph.windows {
		kinds[w.kind] = true
		if i > 0 && w.kind < ph.windows[i-1].kind {
			t.Fatalf("window %d of kind %d after kind %d", i, w.kind, ph.windows[i-1].kind)
		}
	}
	if len(kinds) != 4 {
		t.Fatalf("window kinds %v, want the four states of a cycle", kinds)
	}
	v := c.orc.judge(c.deliveries(), -1)
	if v.expected == 0 || v.missing() != 0 || len(v.falseHits) != 0 {
		t.Fatalf("expected %d, missing %d, false %v", v.expected, v.missing(), v.falseHits)
	}
}

func TestNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{{5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50}} {
		got, n := nearestRank(xs, c.p)
		if got != c.want || n != 5 {
			t.Errorf("p%v = %v (n=%d), want %v (n=5)", c.p, got, n, c.want)
		}
	}
	if v, n := nearestRank(nil, 50); v != 0 || n != 0 {
		t.Errorf("empty: %v, %d", v, n)
	}
	// The input is not reordered.
	ys := []float64{3, 1, 2}
	nearestRank(ys, 50)
	if ys[0] != 3 {
		t.Error("nearestRank sorted its input")
	}
}

func TestWindowedRateIgnoresOneBadWindow(t *testing.T) {
	ws := []window{{100, 1}, {110, 1}, {90, 1}, {5, 1}, {100, 0}, {105, 1}}
	if got := windowedRate(ws); got != 100 {
		t.Errorf("windowed rate %v, want 100 (median of 5,90,100,105,110)", got)
	}
	if got := windowedRate(nil); got != 0 {
		t.Errorf("empty: %v", got)
	}
}

func TestPerNodeStepWeighsKindsByTheirSteps(t *testing.T) {
	ws := []stepWindow{
		{kind: 0, nodeSteps: 100, cpuSec: 1},
		{kind: 0, nodeSteps: 100, cpuSec: 1},
		{kind: 0, nodeSteps: 100, cpuSec: 9}, // one slow window
		{kind: 1, nodeSteps: 50, cpuSec: 2},
	}
	// kind 0: median 0.01 s per node-step × 300; kind 1: 0.04 × 50.
	if got := perNodeStep(ws, cpuSec); math.Abs(got-5) > 1e-9 {
		t.Errorf("per-node-step total %v, want 5", got)
	}
}

// fakeClock is a tracer clock the test advances by hand.
type fakeClock struct{ t int64 }

func (f *fakeClock) now() int64 { return f.t }

func TestSelfTimeSubtractsNestedSpans(t *testing.T) {
	clk := &fakeClock{}
	tr := newTracer()
	tr.now = clk.now
	l := tr.newLane(1)
	l.begin(spanEvent) // t=0
	clk.t = 10
	l.begin(spanSend)
	clk.t = 30
	l.end() // send: 20
	clk.t = 40
	l.begin(spanDir)
	clk.t = 45
	l.end() // directory: 5
	clk.t = 100
	l.end() // event handler: 100, self 75
	ev := l.agg[spanEvent]
	if ev.TotalNs != 100 || ev.SelfNs != 75 || ev.Count != 1 {
		t.Errorf("event span %+v, want total 100 self 75", ev)
	}
	if s := l.agg[spanSend]; s.SelfNs != 20 || s.TotalNs != 20 {
		t.Errorf("send span %+v", s)
	}
	if l.dirCalls[spanEvent] != 1 {
		t.Errorf("directory calls under the handler: %d", l.dirCalls[spanEvent])
	}
	if l.busyNs != 100 || tr.handlerSum() != 100 {
		t.Errorf("busy %d, handler sum %d, want 100", l.busyNs, tr.handlerSum())
	}
	// A call span's self time excludes the handler time it ran.
	own := tr.newLane(0)
	own.addCallSpan(spanStep, 160, 160-tr.handlerSum())
	if s := own.agg[spanStep]; s.SelfNs != 60 {
		t.Errorf("step self %d, want 60", s.SelfNs)
	}
}

func TestSampledSpansShareTheEventID(t *testing.T) {
	tr := newTracer()
	l := tr.newLane(3)
	l.begin(spanEvent) // the first root span is sampled
	l.begin(spanSend)
	l.end()
	l.tagEvent(42)
	l.end()
	if len(l.raw) != 2 {
		t.Fatalf("raw spans %d, want 2", len(l.raw))
	}
	for _, s := range l.raw {
		if s.Trace != 42 {
			t.Errorf("span %s trace %d, want 42", s.Name, s.Trace)
		}
	}
	if l.raw[0].Parent != l.raw[1].ID {
		t.Errorf("send parent %d, handler id %d", l.raw[0].Parent, l.raw[1].ID)
	}
}

func TestOracleJudge(t *testing.T) {
	o := newOracle()
	wide := filter.MustSubscription(filter.Gt("x", 0))
	narrow := filter.MustSubscription(filter.Gt("x", 100))
	o.subscribe(1, wide)
	o.subscribe(2, narrow)
	ev := filter.MustEvent(filter.Assignment{Attr: "x", Val: filter.IntValue(50)})
	exp := o.expect(ev, nil)
	if len(exp) != 1 || exp[0] != 1 {
		t.Fatalf("expected %v, want [1]", exp)
	}
	o.record(1, &publication{ev: ev, at: 0, expected: exp})
	v := o.judge([]delivery{{ev: 1, node: 1, at: 5}, {ev: 1, node: 1, at: 6}}, -1)
	if v.expected != 1 || v.delivered != 1 || v.dups != 1 || len(v.falseHits) != 0 || v.latencies[0] != 5 {
		t.Errorf("good run judged %+v", v)
	}
	v = o.judge([]delivery{{ev: 1, node: 2, at: 5}}, -1)
	if len(v.falseHits) != 1 || v.missing() != 1 {
		t.Errorf("false delivery judged %+v", v)
	}
}

func TestReplayWireRoundTrips(t *testing.T) {
	tr := newTracer()
	c := newSimCluster(simShape{nodes: 40, perNode: 2, eventEvery: 10}, 3, tr)
	if err := c.build(); err != nil {
		t.Fatal(err)
	}
	left := newBudget(1000)
	for _, p := range c.all {
		p.capture = &msgSampler{every: 1, left: left}
	}
	tr.set(true)
	if _, err := c.run(func(i int64) bool { return i < 100 }, 0, nil); err != nil {
		t.Fatal(err)
	}
	var sample []any
	for _, p := range c.all {
		sample = append(sample, p.capture.msgs...)
	}
	ws := replayWire(sample)
	if ws.msgs == 0 || ws.bytesPerMsg <= 0 || ws.encodeNs <= 0 || ws.decodeNs <= 0 || math.IsNaN(ws.decodeAllocs) {
		t.Errorf("wire stats %+v from %d messages", ws, len(sample))
	}
}

// A short run of each live engine: hooks on node goroutines, the
// generator and the fences through Do share the cluster's state, so this
// is the test to run under -race.
func TestNetClusterDeliversEveryExpectedPair(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		shape := netShape{tcp: tcp, nodes: 4, perNode: 2, pacedRate: 500}
		c := newNetCluster(shape, 5, newTracer(), 1<<12)
		if err := c.start(5); err != nil {
			t.Fatal(err)
		}
		if err := c.build(10 * time.Second); err != nil {
			c.close()
			t.Fatal(err)
		}
		c.tr.set(true)
		_, err := c.paced(200*time.Millisecond, 0)
		if err == nil {
			_, err = c.closedLoop(200*time.Millisecond, 1)
		}
		c.tr.set(false)
		c.settle()
		v := c.orc.judge(c.deliveries(), -1)
		c.close()
		if err != nil {
			t.Fatal(err)
		}
		if v.expected == 0 || v.missing() != 0 || len(v.falseHits) != 0 {
			t.Errorf("tcp=%v: expected %d, delivered %d, false %v", tcp, v.expected, v.delivered, v.falseHits)
		}
		if s := c.tr.summary(); s.Agg[spanDo].Count == 0 || s.Agg[spanEvent].Count == 0 {
			t.Errorf("tcp=%v: traced phases recorded no Do or event spans", tcp)
		}
	}
}
