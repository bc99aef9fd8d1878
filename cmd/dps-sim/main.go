// Command dps-sim runs one DPS scenario on the deterministic cycle
// simulator with every protocol knob exposed, printing the delivery ratio
// and traffic summary. It is the exploration companion to dps-bench's
// fixed paper experiments.
//
//	dps-sim -nodes 500 -steps 2000 -traversal generic -comm epidemic \
//	        -fanout 2 -workload game -failure 0.05 -parallel -1
//
// -parallel fans the cycle engine out across a worker pool (-1 = one
// worker per CPU); results are bit-identical to the sequential engine
// for the same seed.
//
// -scenario switches to the chaos harness (internal/conform): the named
// fault-scenario preset (crash bursts, restarts, partitions, loss
// windows, churn, structural corruption) replays with the structural
// invariant checker attached, on the protocol variant selected by
// -traversal/-comm/-fanout/-cross-fanout, and the exit status reports
// whether every scenario ended invariant-clean inside its declared repair
// bound. Use "-scenario list" to enumerate presets (one description line
// each, with the repair bound), "-scenario all" for the suite, and -json
// for the machine-readable report (the final sweep per invariant plus the
// p50/p99 time-to-repair distribution per fault kind). A failing
// (scenario, engine) cell fails the run and is named on stderr.
//
//	dps-sim -scenario dependability -nodes 150
//	dps-sim -scenario all -json
//
// -engine selects the runtime a chaos scenario replays against: "sim"
// (default) is the deterministic cycle engine alone; "live" (goroutine
// runtime), "tcp" (real TCP transports on loopback) or "all" run the
// cycle engine alongside as the differential reference and additionally
// judge delivered-set agreement. -tick sets the live engines' wall-clock
// step. The exit status covers both the invariant verdicts and the
// differential oracle. On "sim" the population is -nodes × -subs (500 × 1
// by default); the other engines default to the harness's 24 × 2, since
// they pay real wall-clock and sockets per node.
//
//	dps-sim -scenario crash-burst -engine all -nodes 24
//	dps-sim -scenario all -engine tcp -tick 5ms -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/dps-overlay/dps/internal/chaos"
	"github.com/dps-overlay/dps/internal/conform"
	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/metrics"
	"github.com/dps-overlay/dps/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		nodes       = flag.Int("nodes", 500, "number of nodes")
		subs        = flag.Int("subs", 1, "subscriptions per node")
		steps       = flag.Int("steps", 2000, "measured steps after the overlay forms")
		eventEvery  = flag.Int("event-every", 10, "publish one event every N steps")
		traversal   = flag.String("traversal", "root", "tree traversal: root | generic")
		comm        = flag.String("comm", "leader", "group communication: leader | epidemic")
		fanout      = flag.Int("fanout", 1, "epidemic in-group fanout k")
		crossFanout = flag.Int("cross-fanout", 1, "epidemic next-level contacts k'")
		wl          = flag.String("workload", "game", "workload: stock | game | alerts")
		failure     = flag.Float64("failure", 0, "node kills per step (0 disables churn)")
		seed        = flag.Int64("seed", 1, "deterministic seed")
		parallel    = flag.Int("parallel", 1, "engine workers: 1 sequential, N>1 parallel, -1 per CPU (same seed ⇒ same results)")
		scenario    = flag.String("scenario", "", "chaos scenario preset to run with invariant checking (see -scenario list); empty runs the plain simulation")
		engine      = flag.String("engine", "sim", "with -scenario: engine to replay it on: sim | live | tcp | all (non-sim engines run the conformance harness against the sim reference)")
		tick        = flag.Duration("tick", 2*time.Millisecond, "with -scenario on live engines: wall-clock duration of one step")
		asJSON      = flag.Bool("json", false, "with -scenario: emit the machine-readable scenario report instead of the table")
	)
	flag.Parse()

	spec, err := workloadSpec(*wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dps-sim:", err)
		return 2
	}
	cfgSpec := conform.ConfigSpec{
		Name:        *traversal + "-" + *comm,
		Fanout:      *fanout,
		CrossFanout: *crossFanout,
	}
	switch *traversal {
	case "root":
		cfgSpec.Traversal = core.RootBased
	case "generic":
		cfgSpec.Traversal = core.Generic
	default:
		fmt.Fprintf(os.Stderr, "dps-sim: unknown traversal %q\n", *traversal)
		return 2
	}
	switch *comm {
	case "leader":
		cfgSpec.Comm = core.LeaderBased
	case "epidemic":
		cfgSpec.Comm = core.Epidemic
	default:
		fmt.Fprintf(os.Stderr, "dps-sim: unknown communication mode %q\n", *comm)
		return 2
	}

	if *scenario == "list" {
		for _, s := range chaos.Presets() {
			bound := "unbounded"
			if s.MaxTTR > 0 {
				bound = fmt.Sprintf("ttr ≤ %d", s.MaxTTR)
			}
			fmt.Printf("%-16s %4d steps + %3d converge, %2d events, %-10s  %s\n",
				s.Name, s.Steps, s.Converge, len(s.Events), bound, s.Description)
		}
		return 0
	}
	if *scenario != "" {
		scenarioNodes, scenarioSubs := *nodes, *subs
		if *engine != "sim" {
			// The live engines keep the harness's CI-sized population
			// unless the flags are set explicitly.
			set := make(map[string]bool)
			flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
			if !set["nodes"] {
				scenarioNodes = 0
			}
			if !set["subs"] {
				scenarioSubs = 0
			}
		}
		return runScenario(*scenario, *engine, cfgSpec, scenarioNodes, scenarioSubs, *eventEvery,
			*seed, *parallel, *tick, *asJSON)
	}

	e := conform.NewSimEngine(cfgSpec, *seed, *parallel, workload.MustGenerator(spec, *seed), *subs, nil)
	fmt.Printf("building overlay: %d nodes × %d subscriptions (%s, %d workers)\n",
		*nodes, *subs, spec.Name, e.Workers())
	if err := e.Bootstrap(*nodes, 25); err != nil {
		fmt.Fprintln(os.Stderr, "dps-sim:", err)
		return 1
	}
	fmt.Printf("forest: %d trees, %d groups\n", e.Oracle().Trees(), e.Oracle().Groups())

	rng := rand.New(rand.NewSource(*seed ^ 0x51e))
	killEvery := 0
	if *failure > 0 {
		killEvery = int(1 / *failure)
		if killEvery < 1 {
			killEvery = 1
		}
	}
	snap := e.Traffic()
	events := 0
	for step := 1; step <= *steps; step++ {
		if step%*eventEvery == 0 {
			e.PublishTracked(rng)
			events++
		}
		if killEvery > 0 && step%killEvery == 0 && e.AliveCount() > 2 {
			alive := e.AliveIDs()
			e.Kill(alive[rng.Int63()%int64(len(alive))])
		}
		e.Run(1)
	}
	e.Run(80)

	deltas := e.TrafficSince(snap)
	ids := e.AliveIDs()
	outs := metrics.Collect(ids, deltas, metrics.Counts.OutTotal)
	ins := metrics.Collect(ids, deltas, metrics.Counts.InTotal)
	fmt.Printf("\nconfig            %s\n", cfgSpec.Name)
	fmt.Printf("events published  %d\n", events)
	fmt.Printf("delivery ratio    %.4f\n", e.Ratio())
	fmt.Printf("survivors         %d / %d\n", e.AliveCount(), *nodes)
	fmt.Printf("msgs out          median %.1f   max %d   (per node, whole run)\n",
		metrics.Median(outs), metrics.Max(outs))
	fmt.Printf("msgs in           median %.1f   max %d\n",
		metrics.Median(ins), metrics.Max(ins))
	return 0
}

// runScenario replays chaos scenarios ("all" for the suite) through the
// conformance harness on the protocol variant cfgSpec: the named engines
// (plus the sim reference) run the same fault timeline and workload,
// judged by the invariant checker and, off the sim engine, the
// differential delivered-set oracle. Exit status 0 requires every engine
// invariant-clean inside its repair bound and every differential verdict
// passing. A zero nodes or subs keeps the harness's own CI-sized default.
// The preset timelines replace -steps/-failure; -workload is fixed to the
// suite's default.
func runScenario(scenario, engine string, cfgSpec conform.ConfigSpec, nodes, subs, eventEvery int,
	seed int64, parallel int, tick time.Duration, asJSON bool) int {
	opts := conform.DefaultOptions()
	opts.Config = cfgSpec
	opts.Seed = seed
	opts.Nodes = nodes
	opts.SubsPerNode = subs
	opts.EventEvery = eventEvery
	opts.Workers = parallel
	opts.TickEvery = tick
	switch engine {
	case "all":
		opts.Engines = conform.EngineNames()
	default:
		opts.Engines = []string{engine}
	}
	if scenario != "all" {
		opts.Scenarios = []string{scenario}
	}
	res, err := conform.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dps-sim:", err)
		return 2
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "dps-sim:", err)
			return 1
		}
	} else {
		fmt.Print(res.Render())
	}
	if cells := res.FailingCells(); len(cells) > 0 {
		// One failing (scenario, engine) cell fails the whole matrix; name
		// each on stderr so -json runs and CI logs see which cell it was.
		for _, c := range cells {
			fmt.Fprintln(os.Stderr, "dps-sim: FAIL", c)
		}
		return 1
	}
	return 0
}

func workloadSpec(name string) (workload.Spec, error) {
	switch name {
	case "stock":
		return workload.Workload1(), nil
	case "game":
		return workload.Workload2(), nil
	case "alerts":
		return workload.Workload3(), nil
	default:
		return workload.Spec{}, fmt.Errorf("unknown workload %q (stock | game | alerts)", name)
	}
}
