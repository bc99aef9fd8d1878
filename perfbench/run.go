package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/metrics"
)

// The wire replay keeps one sent message in msgEvery, at most msgBudget
// in all.
const (
	msgEvery  = 7
	msgBudget = 20_000
)

// Set-ups per run whose median is setup_s: a live-engine set-up takes
// milliseconds, so it is repeated more to steady the median.
const (
	simSetups = 7
	netSetups = 15
)

// setupMedian is setup_s: the median of several set-ups, each building a
// fresh cluster and waiting until every membership is active.
func setupMedian(durs []time.Duration) float64 {
	xs := make([]float64, len(durs))
	for i, d := range durs {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// layerInputs is what the per-layer metrics are computed from: the
// traced spans and counts, and the untraced phase for runtime costs.
type layerInputs struct {
	sum         traceSummary // traced phase
	subscribe   spanAgg      // Subscribe spans, set-up and traced phase
	subDirCalls int64
	dir         spanAgg // Directory spans, set-up and traced phase
	cnt         nodeCounters
	delivered   int64   // expected pairs of traced-phase events delivered
	busyDen     float64 // ns the busy share is taken over
	calls       spanAgg // the benchmark's Step or Do spans
	drops       int64
	nodeSteps   float64 // node-steps per second, untraced phase
	overhead    float64
	rt0, rt1    runtimeSample // untraced phase
	rtDelivered int64
	rtNodeSteps int64
	latencies   []float64 // untraced phase, ms
	genLate     []float64 // paced phases, ms (live engines only)
	wire        wireStats
	filters     filterStats
	engineLayer string // "sim", "livenet" or "tcpnet"
}

// addLayers writes the per-layer metrics of the result line, then the
// printed-only views under the engine's own layer names.
func addLayers(r *report, in layerInputs) {
	s := in.sum
	r.add("core.event_self_ns", s.Agg[spanEvent].meanSelfNs(), "ns")
	r.add("core.control_self_ns", s.Agg[spanControl].meanSelfNs(), "ns")
	r.add("core.tick_self_ns", s.Agg[spanTick].meanSelfNs(), "ns")
	r.add("core.publish_ns", s.Agg[spanPublish].meanNs(), "ns")
	r.add("core.subscribe_ns", in.subscribe.meanNs(), "ns")
	r.add("core.dir_calls_per_subscribe", ratio(float64(in.subDirCalls), float64(in.subscribe.Count)), "calls")
	r.add("core.dir_call_ns", in.dir.meanNs(), "ns")
	ticks := float64(in.cnt.ticks)
	r.add("core.event_msgs_per_delivery", ratio(float64(in.cnt.sends[metrics.KindEvent]), float64(in.delivered)), "msgs/pair")
	r.add("core.heartbeat_msgs_per_node_step", ratio(float64(in.cnt.sends[metrics.KindHeartbeat]), ticks), "msgs")
	r.add("core.control_msgs_per_node_step", ratio(float64(in.cnt.sends[metrics.KindControl]), ticks), "msgs")
	r.add("core.false_positive_ratio",
		ratio(float64(in.cnt.contacted-in.cnt.delivered), float64(in.cnt.contacted)), "fraction")
	r.add("core.busy_share_max", ratio(float64(s.BusyMax), in.busyDen), "fraction")
	r.add("engine.send_ns", s.Agg[spanSend].meanNs(), "ns")
	r.add("engine.call_self_ns", in.calls.meanSelfNs(), "ns")
	r.add("engine.sends_per_node_step", ratio(float64(in.cnt.totalSends()), ticks), "msgs")
	r.add("engine.node_steps_per_s", in.nodeSteps, "node-steps/s")
	r.add("engine.drops", float64(in.drops), "msgs")
	r.add("wire.encode_ns", in.wire.encodeNs, "ns")
	r.add("wire.decode_ns", in.wire.decodeNs, "ns")
	r.add("wire.bytes_per_msg", in.wire.bytesPerMsg, "bytes")
	r.add("wire.decode_allocs", in.wire.decodeAllocs, "allocs")
	r.add("filter.match_ns", in.filters.matchNs, "ns")
	r.add("filter.includes_ns", in.filters.includesNs, "ns")
	r.add("runtime.allocs_per_delivery",
		ratio(float64(in.rt1.mallocs-in.rt0.mallocs), float64(in.rtDelivered)), "allocs")
	r.add("runtime.allocs_per_node_step",
		ratio(float64(in.rt1.mallocs-in.rt0.mallocs), float64(in.rtNodeSteps)), "allocs")
	r.add("runtime.gc_cpu_share", ratio(in.rt1.gcCPU-in.rt0.gcCPU, in.rt1.totalCPU-in.rt0.totalCPU), "fraction")
	p99, n := nearestRank(in.latencies, 99)
	r.add("harness.deliver_p99_ms", p99, "ms")
	r.add("harness.deliver_samples", float64(n), "count")
	r.add("harness.trace_overhead", in.overhead, "fraction")

	// The engine-specific names, printed for the engine that ran.
	switch in.engineLayer {
	case "sim":
		r.info("sim.step_self_ns", in.calls.meanSelfNs(), "ns")
		r.info("sim.sends_per_step", ratio(float64(in.cnt.totalSends()), float64(in.calls.Count)), "msgs")
		r.na("harness.gen_late_p99_ms", "the cycle engine publishes between steps; there is no schedule to fall behind")
	default:
		l := in.engineLayer
		r.info(l+".send_ns", s.Agg[spanSend].meanNs(), "ns")
		r.info(l+".do_wait_ns", in.calls.meanSelfNs(), "ns")
		r.info(l+".drops", float64(in.drops), "msgs")
		if l == "tcpnet" {
			r.info("tcpnet.dir_call_ns", in.dir.meanNs(), "ns")
		}
		late, _ := nearestRank(in.genLate, 99)
		r.info("harness.gen_late_p99_ms", late, "ms")
	}
	r.info("wire.replayed_msgs", float64(in.wire.msgs), "count")
	r.trace = s
}

func runSim(o opts, shape simShape) (*report, error) {
	r := &report{workload: o.workload}
	setups := o.setupCount(simSetups)
	var c *simCluster
	var durs []time.Duration
	var heapBase uint64
	for i := 0; i < setups; i++ {
		tr := newTracer()
		tr.set(o.trace)
		if i == setups-1 {
			heapBase = heapInUse()
		}
		cl := newSimCluster(shape, o.seed, tr)
		d, err := timedSetup(cl.build)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		durs = append(durs, d)
		c = cl
	}
	heap := float64(heapInUse()-heapBase) / float64(shape.nodes)
	var build traceSummary
	if o.trace {
		build = c.tr.summary()
		c.tr.set(false)
		c.tr.reset()
	}
	// Warm-up, untimed: events go out only in a settled overlay.
	if err := c.settle(); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", o.workload, err)
	}
	routing := c.routingBytesPerNode()
	var ch *simChurn
	if shape.churn {
		var err error
		if ch, err = newSimChurn(c, o.seed); err != nil {
			return nil, err
		}
	}

	d := o.measure()
	if o.trace {
		d /= 2
	}
	cnt0 := c.counters()
	ph0, err := c.run(forDuration(d), 0, ch)
	if err != nil {
		return nil, err
	}
	var ph1 simPhase
	if o.trace {
		left := newBudget(msgBudget)
		for _, p := range c.all {
			p.capture = &msgSampler{every: msgEvery, left: left}
		}
		c.tr.set(true)
		if ph1, err = c.run(forDuration(d), 1, ch); err != nil {
			return nil, err
		}
		c.tr.set(false)
	}
	drainSteps := c.drain(60)
	r.v = c.orc.judge(c.deliveries(), -1)
	if r.v.expected == 0 {
		return nil, fmt.Errorf("%s: no expected pairs", o.workload)
	}
	v0 := c.orc.judge(c.deliveries(), 0)
	rate0 := ratio(float64(ph0.nodeSteps), perNodeStep(ph0.windows, progSec))

	if !o.trace {
		// The final drain's node-steps are costed at the phase's average.
		nodeSteps := float64(ph0.nodeSteps + drainSteps)
		scale := nodeSteps / float64(ph0.nodeSteps)
		secs := perNodeStep(ph0.windows, progSec) * scale
		cpu := perNodeStep(ph0.windows, cpuSec) * scale
		cnt := c.counters().sub(cnt0)
		r.add("setup_s", setupMedian(durs), "s")
		r.add("cpu_us_per_delivery", ratio(cpu*1e6, float64(v0.delivered)), "us")
		r.add("delivery_ratio", ratio(float64(v0.delivered), float64(v0.expected)), "fraction")
		r.add("msgs_per_delivery", ratio(float64(cnt.totalSends()), float64(v0.delivered)), "msgs/pair")
		r.add("routing_bytes_per_node", routing, "bytes")
		r.add("heap_bytes_per_node", heap, "bytes")
		addWallClock(r, ratio(float64(v0.delivered), secs), v0)
		r.info("node_steps_per_s", rate0, "node-steps/s")
		r.info("cpu_ns_per_node_step", ratio(cpu*1e9, nodeSteps), "ns")
		r.info("node_steps_per_pair", ratio(nodeSteps, float64(v0.delivered)), "node-steps")
		p99s, n := nearestRank(v0.steps, 99)
		r.info("deliver_p99_steps", p99s, fmt.Sprintf("steps (n=%d)", n))
		if ch != nil {
			rp, n := nearestRank(ch.repairs, 90)
			r.info("repair_p90_steps", rp, fmt.Sprintf("steps (n=%d)", n))
		}
		return r, nil
	}

	v1 := c.orc.judge(c.deliveries(), 1)
	sum := c.tr.summary()
	sub := build.Agg[spanSubscribe]
	sub.add(sum.Agg[spanSubscribe])
	dir := build.Agg[spanDir]
	dir.add(sum.Agg[spanDir])
	var sample []any
	for _, p := range c.all {
		if p.capture != nil {
			sample = append(sample, p.capture.msgs...)
		}
	}
	var evs []filter.Event
	for id := 1; id <= 64 && c.orc.events[core.EventID(id)] != nil; id++ {
		evs = append(evs, c.orc.events[core.EventID(id)].ev)
	}
	addLayers(r, layerInputs{
		sum:         sum,
		subscribe:   sub,
		subDirCalls: build.DirCalls[spanSubscribe] + sum.DirCalls[spanSubscribe],
		dir:         dir,
		cnt:         ph1.cnt,
		delivered:   v1.delivered,
		busyDen:     float64(sum.Agg[spanStep].TotalNs + sum.Agg[spanPublish].TotalNs),
		calls:       sum.Agg[spanStep],
		drops:       ph1.drops,
		nodeSteps:   rate0,
		overhead:    ratio(rate0, ratio(float64(ph1.nodeSteps), perNodeStep(ph1.windows, progSec))) - 1,
		rt0:         ph0.rt0,
		rt1:         ph0.rt1,
		rtDelivered: v0.delivered,
		rtNodeSteps: ph0.nodeSteps,
		latencies:   msScale(v0.latencies),
		wire:        replayWire(sample),
		filters:     timeFilters(c.orc.allSubs(), evs),
		engineLayer: "sim",
	})
	return r, nil
}

// addWallClock prints the wall-clock view of a phase: throughput and the
// delivery latency of its expected pairs. They are not part of the result
// line: on a shared host they move by multiples when neighbours load it
// (see METRICS.md).
func addWallClock(r *report, perSec float64, v verdict) {
	r.info("delivered_per_s", perSec, "pairs/s")
	p50, n := nearestRank(v.latencies, 50)
	p90, _ := nearestRank(v.latencies, 90)
	r.info("deliver_p50_ms", p50/1e6, fmt.Sprintf("ms (n=%d)", n))
	r.info("deliver_p90_ms", p90/1e6, "ms")
}

// timedSetup runs one set-up and returns the CPU time the process spent
// on it, at reference speed (the slowdown taken as the mean of readings
// before and after). CPU time, not elapsed time: on a shared host the
// elapsed time of a set-up that hands messages between goroutines
// doubles when neighbours load the machine, while its work does not.
func timedSetup(build func() error) (time.Duration, error) {
	// Collect the previous set-up's garbage first, so that collecting it
	// is not charged to this one.
	runtime.GC()
	f0 := slowdown()
	c0 := processCPU()
	err := build()
	d := processCPU() - c0
	f := (f0 + slowdown()) / 2
	return time.Duration(float64(d) / f), err
}

func msScale(ns []float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = v / 1e6
	}
	return out
}

func runNet(o opts, shape netShape) (*report, error) {
	r := &report{workload: o.workload}
	setups := o.setupCount(netSetups)
	var c *netCluster
	var durs []time.Duration
	var heapBase uint64
	for i := 0; i < setups; i++ {
		tr := newTracer()
		tr.set(o.trace)
		events := 0
		if i == setups-1 {
			events = maxNetEvents
		}
		cl := newNetCluster(shape, o.seed, tr, events)
		if i == setups-1 {
			heapBase = heapInUse()
		}
		d, err := timedSetup(func() error {
			if err := cl.start(o.seed); err != nil {
				return err
			}
			return cl.build(30 * time.Second)
		})
		if err != nil {
			if cl.close != nil {
				cl.close()
			}
			return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		durs = append(durs, d)
		if i < setups-1 {
			cl.close()
		}
		c = cl
	}
	defer c.close()
	heap := float64(heapInUse()-heapBase) / float64(shape.nodes)
	routing := c.routingBytesPerNode()
	var build traceSummary
	if o.trace {
		c.tr.set(false)
		_ = c.onAll(func(*nodeProxy) {}) // fence: no traced handler still runs
		build = c.tr.summary()
		c.tr.reset()
	}

	d := o.measure()
	if !o.trace {
		paced, err := c.paced(d/2, 0)
		if err != nil {
			return nil, err
		}
		closed, err := c.closedLoop(d/2, 2)
		if err != nil {
			return nil, err
		}
		c.settle()
		ds := c.deliveries()
		r.v = c.orc.judge(ds, -1)
		vp := c.orc.judge(ds, 0)
		if r.v.expected == 0 {
			return nil, fmt.Errorf("%s: no expected pairs", o.workload)
		}
		r.add("setup_s", setupMedian(durs), "s")
		// CPU per pair comes from the closed loop: saturated, the process
		// spends no CPU idling in the scheduler, which makes the paced
		// reading swing with how often goroutines park and wake.
		r.add("cpu_us_per_delivery", windowedRate(closed.cpuPerPair)*1e6, "us")
		r.info("cpu_us_per_delivery_paced", ratio(float64(paced.cpu.Microseconds()), float64(vp.delivered)), "us")
		addWallClock(r, windowedRate(closed.rates), vp)
		r.add("delivery_ratio", ratio(float64(r.v.delivered), float64(r.v.expected)), "fraction")
		r.add("msgs_per_delivery", ratio(float64(paced.cnt.totalSends()), float64(vp.delivered)), "msgs/pair")
		r.add("routing_bytes_per_node", routing, "bytes")
		r.add("heap_bytes_per_node", heap, "bytes")
		late, _ := nearestRank(paced.late, 99)
		r.info("harness.gen_late_p99_ms", late, "ms")
		r.info("closed_loop_timeouts", float64(closed.timeouts), "count")
		return r, nil
	}

	// Traced: each loop runs untraced, then traced, for a quarter of the
	// measured time; runtime costs and latency come from the untraced
	// halves, the per-layer spans from the traced ones.
	q := d / 4
	var phases [4]netPhase
	var err error
	for i := range phases {
		traced := i%2 == 1
		if i == 1 {
			left := newBudget(msgBudget)
			_ = c.onAll(func(p *nodeProxy) { p.capture = &msgSampler{every: msgEvery, left: left} })
		}
		c.tr.set(traced)
		if i < 2 {
			phases[i], err = c.paced(q, i)
		} else {
			phases[i], err = c.closedLoop(q, i)
		}
		c.tr.set(false)
		if err != nil {
			return nil, err
		}
	}
	c.settle()
	ds := c.deliveries()
	r.v = c.orc.judge(ds, -1)
	v0, v1, v3 := c.orc.judge(ds, 0), c.orc.judge(ds, 1), c.orc.judge(ds, 3)
	sum := c.tr.summary()
	sub := build.Agg[spanSubscribe]
	sub.add(sum.Agg[spanSubscribe])
	dir := build.Agg[spanDir]
	dir.add(sum.Agg[spanDir])
	cnt := phases[1].cnt
	cnt.add(phases[3].cnt)
	var sample []any
	_ = c.onAll(func(p *nodeProxy) {
		if p.capture != nil {
			sample = append(sample, p.capture.msgs...)
		}
	})
	subs := c.orc.allSubs()
	var evs []filter.Event
	for id := 1; id <= 64 && c.orc.events[core.EventID(id)] != nil; id++ {
		evs = append(evs, c.orc.events[core.EventID(id)].ev)
	}
	c.close()
	var late []float64
	late = append(late, phases[0].late...)
	late = append(late, phases[1].late...)
	layer := "livenet"
	if shape.tcp {
		layer = "tcpnet"
	}
	addLayers(r, layerInputs{
		sum:         sum,
		subscribe:   sub,
		subDirCalls: build.DirCalls[spanSubscribe] + sum.DirCalls[spanSubscribe],
		dir:         dir,
		cnt:         cnt,
		delivered:   v1.delivered + v3.delivered,
		busyDen:     float64((phases[1].wall + phases[3].wall).Nanoseconds()),
		calls:       sum.Agg[spanDo],
		drops:       phases[1].drops + phases[3].drops,
		nodeSteps:   ratio(float64(phases[2].cnt.ticks), phases[2].wall.Seconds()),
		overhead:    ratio(windowedRate(phases[2].rates), windowedRate(phases[3].rates)) - 1,
		rt0:         phases[2].rt0,
		rt1:         phases[2].rt1,
		rtDelivered: c.orc.judge(ds, 2).delivered,
		rtNodeSteps: phases[2].cnt.ticks,
		latencies:   msScale(v0.latencies),
		genLate:     late,
		wire:        replayWire(sample),
		filters:     timeFilters(subs, evs),
		engineLayer: layer,
	})
	return r, nil
}
