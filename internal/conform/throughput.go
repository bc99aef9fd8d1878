package conform

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/workload"
)

// Throughput is the sustained-load experiment of the event pipeline:
// the same population bootstrap as a conformance run, then a fault-free
// publish storm — bursts of tracked events from random live publishers,
// paced one burst per engine step — measured in wall-clock terms on all
// three engines. It answers the question the conformance matrix
// deliberately doesn't: not "does every engine deliver the same pairs"
// but "how fast, and how soon" — sustained delivered pairs per second
// and per-delivery latency, engine by engine.
//
// Latency is publish-wall-time to delivery-hook-wall-time per
// (event, node) pair; on the cycle engine steps are as fast as the CPU
// allows, so its numbers measure the protocol's computational cost, while
// the live engines' numbers include real ticker scheduling and — on tcp —
// real socket writes, where the buffered writer earns its keep.

// ThroughputOptions parameterise one throughput run.
type ThroughputOptions struct {
	// Seed drives the subscription plan, publisher draws and event draws.
	Seed int64 `json:"seed"`
	// Nodes and SubsPerNode size the population, as in Options.
	Nodes       int `json:"nodes"`
	SubsPerNode int `json:"subs_per_node"`
	// Events is the number of tracked events published in total.
	Events int `json:"events"`
	// Burst is how many events go out per engine step — the offered load.
	Burst int `json:"burst"`
	// TickEvery is the live engines' step period (sim steps are CPU-bound).
	TickEvery time.Duration `json:"tick_every_ns"`
	// Engines names the engines to measure; empty measures all three.
	Engines []string `json:"engines,omitempty"`
	// Workers is the cycle engine's worker count (0/1 sequential).
	Workers int `json:"workers,omitempty"`
}

// DefaultThroughputOptions sizes the run so all three engines stay
// CI-viable.
func DefaultThroughputOptions() ThroughputOptions {
	return ThroughputOptions{
		Seed:        1,
		Nodes:       24,
		SubsPerNode: 2,
		Events:      240,
		Burst:       8,
		TickEvery:   2 * time.Millisecond,
	}
}

func (o ThroughputOptions) withDefaults() ThroughputOptions {
	d := DefaultThroughputOptions()
	if o.Nodes <= 0 {
		o.Nodes = d.Nodes
	}
	if o.SubsPerNode <= 0 {
		o.SubsPerNode = d.SubsPerNode
	}
	if o.Events <= 0 {
		o.Events = d.Events
	}
	if o.Burst <= 0 {
		o.Burst = d.Burst
	}
	if o.TickEvery <= 0 {
		o.TickEvery = d.TickEvery
	}
	if len(o.Engines) == 0 {
		o.Engines = EngineNames()
	}
	return o
}

// ThroughputRun is one engine's measurement.
type ThroughputRun struct {
	Engine string `json:"engine"`
	// Events is the tracked-event count, DeliveredPairs the (event, node)
	// deliveries observed, ExpectedPairs the oracle's expectation.
	Events         int `json:"events"`
	DeliveredPairs int `json:"delivered_pairs"`
	ExpectedPairs  int `json:"expected_pairs"`
	// EventsPerSec is sustained delivery throughput: the steady-state
	// delivery rate over the inner 80% of pairs by arrival order (the
	// first and last deciles are warmup and tail, dominated by burst
	// ramp-up and tick-quantised stragglers rather than pipeline
	// capacity). Falls back to the full first-publish-to-last-delivery
	// span when there are too few pairs to trim.
	EventsPerSec float64 `json:"events_per_sec"`
	// LatencyP50MS / LatencyP99MS are per-pair publish-to-delivery
	// wall-clock latency percentiles in milliseconds.
	LatencyP50MS float64 `json:"latency_p50_ms"`
	LatencyP99MS float64 `json:"latency_p99_ms"`
	// ElapsedMS is first-publish-to-last-delivery wall time.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// ThroughputResult bundles one run per engine.
type ThroughputResult struct {
	Runs []ThroughputRun   `json:"runs"`
	Opts ThroughputOptions `json:"opts"`
}

// Render prints one row per engine.
func (r *ThroughputResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Throughput — sustained event pipeline\n")
	fmt.Fprintf(&b, "(%d nodes × %d subscriptions, %d events in bursts of %d, tick %v, seed %d)\n",
		r.Opts.Nodes, r.Opts.SubsPerNode, r.Opts.Events, r.Opts.Burst, r.Opts.TickEvery, r.Opts.Seed)
	fmt.Fprintf(&b, "%-6s %14s %12s %12s %12s\n",
		"engine", "events/sec", "p50 ms", "p99 ms", "pairs")
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "%-6s %14.0f %12.3f %12.3f %7d/%d\n",
			run.Engine, run.EventsPerSec, run.LatencyP50MS, run.LatencyP99MS,
			run.DeliveredPairs, run.ExpectedPairs)
	}
	return b.String()
}

// RunThroughput measures every requested engine, fresh overlay per run.
func RunThroughput(opts ThroughputOptions) (*ThroughputResult, error) {
	opts = opts.withDefaults()
	if opts.Nodes < 4 {
		return nil, fmt.Errorf("conform: throughput needs at least 4 nodes, have %d", opts.Nodes)
	}
	res := &ThroughputResult{Opts: opts}
	for _, name := range opts.Engines {
		switch name {
		case EngineSim, EngineLive, EngineTCP:
		default:
			return nil, fmt.Errorf("conform: unknown engine %q (have %s)",
				name, strings.Join(EngineNames(), ", "))
		}
		run, err := runThroughputOn(name, opts)
		if err != nil {
			return nil, err
		}
		res.Runs = append(res.Runs, *run)
	}
	return res, nil
}

// runThroughputOn measures one engine: bootstrap, publish storm, drain.
func runThroughputOn(name string, opts ThroughputOptions) (*ThroughputRun, error) {
	eng := Options{
		Seed:        opts.Seed,
		Nodes:       opts.Nodes,
		SubsPerNode: opts.SubsPerNode,
		TickEvery:   opts.TickEvery,
		Workers:     opts.Workers,
	}.withDefaults()
	gen := workload.MustGenerator(workload.Workload2(), opts.Seed)
	pop := newPopulation(gen, opts.SubsPerNode)
	rec := newRecorder()
	e, err := newEngine(name, eng, pop, rec)
	if err != nil {
		return nil, err
	}
	defer e.Close()

	// Bootstrap: the same two-wave subscription plan a conformance run
	// uses, so the overlay under load is the overlay under test elsewhere.
	plan := buildPlan(pop, opts.Nodes, e.AddNode)
	feed := func(jobs []plannedSub) error {
		for len(jobs) > 0 {
			k := 25
			if k > len(jobs) {
				k = len(jobs)
			}
			for _, j := range jobs[:k] {
				if err := e.Subscribe(j.id, j.sub); err != nil {
					return fmt.Errorf("conform: %s throughput bootstrap: %w", name, err)
				}
			}
			jobs = jobs[k:]
			e.AwaitStep(e.Now() + 1)
		}
		return nil
	}
	if err := feed(plan.creators); err != nil {
		return nil, err
	}
	e.AwaitStep(e.Now() + 25)
	if err := feed(plan.joiners); err != nil {
		return nil, err
	}
	e.AwaitStep(e.Now() + 120)

	// Publish storm: Burst events per step from random live publishers,
	// each publisher's share of a burst injected in one scheduling round
	// (PublishMany). Every event is stamped before its bulk goes out, so
	// latency includes the publisher-side pipeline (encode, flush), not
	// just relay hops.
	// Oracle matching (expected sets) happens after the drain: the
	// population is static during the storm, so expected recipients are
	// the same either way, and the semtree walks stay out of the timed
	// window where they would steal CPU from the engines under test.
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x7497))
	ids := e.AliveIDs()
	published := make([]filter.Event, 0, opts.Events)
	start := time.Now()
	next := core.EventID(1)
	byPub := make(map[int][]int, len(ids)) // publisher index -> burst slots
	for len(published) < opts.Events {
		k := opts.Burst
		if rest := opts.Events - len(published); k > rest {
			k = rest
		}
		evs := make([]core.EventID, k)
		events := make([]filter.Event, k)
		for i := range byPub {
			delete(byPub, i)
		}
		for b := 0; b < k; b++ {
			evs[b] = next
			events[b] = gen.Event()
			published = append(published, events[b])
			p := rng.Intn(len(ids))
			byPub[p] = append(byPub[p], b)
			next++
		}
		pubs := make([]int, 0, len(byPub))
		for p := range byPub {
			pubs = append(pubs, p)
		}
		sort.Ints(pubs) // deterministic injection order per burst
		for _, p := range pubs {
			slots := byPub[p]
			bulkEvs := make([]core.EventID, 0, len(slots))
			bulkEvents := make([]filter.Event, 0, len(slots))
			for _, b := range slots {
				bulkEvs = append(bulkEvs, evs[b])
				bulkEvents = append(bulkEvents, events[b])
			}
			at := time.Now()
			for _, ev := range bulkEvs {
				rec.publishAt(ev, at)
			}
			if err := e.PublishMany(ids[p], bulkEvs, bulkEvents); err != nil {
				return nil, fmt.Errorf("conform: %s throughput publish: %w", name, err)
			}
		}
		e.AwaitStep(e.Now() + 1)
	}

	// Drain until deliveries stop arriving: a run is over when the
	// delivered-pair count holds still for a full quiet window.
	const quietSteps = 30
	stale, seen := 0, -1
	for stale < quietSteps {
		e.AwaitStep(e.Now() + 1)
		if n := rec.deliveredCount(); n != seen {
			seen, stale = n, 0
		} else {
			stale++
		}
	}

	// Register expected sets now that the clock has stopped.
	for i, event := range published {
		rec.publish(core.EventID(i+1), event, ids)
	}

	pairs, sorted, arrivals, last := rec.latencySummary()
	run := &ThroughputRun{
		Engine:         name,
		Events:         opts.Events,
		DeliveredPairs: pairs,
	}
	for _, n := range rec.expectedCounts() {
		run.ExpectedPairs += n
	}
	if pairs > 0 {
		run.EventsPerSec = steadyRate(arrivals, start)
		run.ElapsedMS = float64(last.Sub(start)) / float64(time.Millisecond)
		run.LatencyP50MS = float64(percentileDuration(sorted, 0.50)) / float64(time.Millisecond)
		run.LatencyP99MS = float64(percentileDuration(sorted, 0.99)) / float64(time.Millisecond)
	}
	return run, nil
}

// steadyRate estimates sustained pairs/sec from arrival-ordered delivery
// times: the inner 80% of pairs over the wall-clock span they arrived in.
// With fewer than 20 pairs (nothing to trim) it falls back to the full
// start-to-last span.
func steadyRate(arrivals []time.Time, start time.Time) float64 {
	n := len(arrivals)
	if n == 0 {
		return 0
	}
	cut := n / 10
	if cut == 0 || n-2*cut < 2 {
		span := arrivals[n-1].Sub(start)
		if span <= 0 {
			return 0
		}
		return float64(n) / span.Seconds()
	}
	span := arrivals[n-1-cut].Sub(arrivals[cut])
	if span <= 0 {
		return 0
	}
	return float64(n-2*cut) / span.Seconds()
}

// percentileDuration reads the p-quantile of an ascending sample slice
// (nearest-rank).
func percentileDuration(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
