// Command dps-bench regenerates every table and figure of the paper's
// evaluation (§5.1–§5.2). With no flags it runs everything at paper scale;
// -experiment selects one artefact and -scale shrinks the populations and
// durations proportionally for quick runs.
//
//	dps-bench -experiment table1
//	dps-bench -experiment fig3a -scale 0.2
//	dps-bench -experiment all -seed 7
//	dps-bench -experiment scale -parallel -1
//	dps-bench -experiment analysis -json
//	dps-bench -experiment chaos -json
//
// The chaos experiment runs the scripted fault suite of internal/chaos
// (crash bursts, restarts, partitions, loss windows, churn, structural
// corruption) on the cycle engine through the conformance harness
// (internal/conform), 150 nodes × 2 subscriptions at full scale, with
// the structural-invariant checker attached; -json emits per-scenario
// invariant verdicts and time-to-repair distributions. The
// chaos-corruption experiment isolates the two corruption presets
// (corruption, byzantine-state) so the benchmark guard tracks the repair
// machinery's wall-clock on its own line.
//
// The conform experiment runs that suite through the cross-engine
// conformance harness (internal/conform): every scenario replays on the
// cycle engine, the goroutine runtime and the TCP engine, judged by the
// same invariant checker plus a differential delivered-set oracle. It is
// wall-clock bound (live engines tick in real time), so like scale it is
// excluded from -experiment all and must be selected explicitly.
//
// The throughput experiment measures the sustained event pipeline on all
// three engines, one run each (internal/conform.RunThroughput): a
// publish storm at a fixed per-tick burst rate, reporting sustained
// events/sec (steady-state delivered-pair arrival rate) and wall-clock
// delivery latency percentiles. In -json each run carries
// "events_per_sec" (float, sustained delivered pairs per second),
// "latency_p50_ms" and "latency_p99_ms" (float, publish-to-delivery
// wall-clock percentiles in milliseconds). Wall-clock bound like conform
// and scale, so -experiment all skips it — select it explicitly.
//
// -json replaces the rendered tables with one machine-readable JSON
// document (run parameters, per-experiment wall-clock, full result
// structs) for the BENCH_*.json performance trajectory and the CI
// benchmark smoke.
//
// -parallel fans the cycle engine out across a worker pool (-1 = one
// worker per CPU, 1 = sequential, 0 = each experiment's default:
// sequential everywhere except scale, which defaults to all cores);
// every simulation's metrics are bit-identical to the sequential engine
// for the same seed. The analysis experiment evaluates closed forms and
// has no engine to parallelise. The scale experiment runs the full
// protocol at 50k nodes (100k at -scale 2); it is far heavier than the
// paper artefacts, so -experiment all skips it — select it explicitly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/dps-overlay/dps/internal/conform"
	"github.com/dps-overlay/dps/internal/experiments"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		experiment = flag.String("experiment", "all",
			"one of: table1, table1-protocol, fig3a, fig3b, fig3c, fig3d, fig3e, fig3f, fig3g, latency, ablations, analysis, chaos, chaos-corruption, conform, throughput, scale, all")
		scale    = flag.Float64("scale", 1.0, "scale factor on paper-size populations and durations")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		parallel = flag.Int("parallel", 0, "engine workers: 0 experiment default, 1 sequential, N>1 parallel, -1 per CPU (same seed ⇒ same results)")
		asJSON   = flag.Bool("json", false, "emit machine-readable JSON (one document with every selected experiment) instead of tables")
	)
	flag.Parse()
	if *scale <= 0 || *scale > 10 {
		fmt.Fprintln(os.Stderr, "dps-bench: -scale must be in (0, 10]")
		return 2
	}
	want := strings.ToLower(*experiment)
	ran := false
	report := benchReport{Seed: *seed, Scale: *scale, Parallel: *parallel}
	for _, exp := range registry() {
		if !selects(want, exp.name) {
			continue
		}
		ran = true
		start := time.Now()
		res, err := exp.run(*seed, *scale, *parallel)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dps-bench: %s: %v\n", exp.name, err)
			return 1
		}
		elapsed := time.Since(start)
		if *asJSON {
			report.Experiments = append(report.Experiments, newBenchRecord(exp.name, elapsed, res))
			continue
		}
		fmt.Println(res.Render())
		fmt.Printf("[%s took %v]\n\n", exp.name, elapsed.Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "dps-bench: unknown experiment %q\n", want)
		return 2
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "dps-bench:", err)
			return 1
		}
	}
	return 0
}

// selects reports whether the -experiment value want runs the named
// experiment. "all" covers the paper artefacts; the 50k-node scale run,
// the wall-clock-bound cross-engine conformance matrix and the
// sustained-throughput measurement are orders of magnitude heavier (or
// wall-clock bound) and must be selected explicitly.
func selects(want, name string) bool {
	if want == "all" {
		return name != "scale" && name != "conform" && name != "throughput"
	}
	return want == name
}

// benchReport is the -json document: run parameters plus one record per
// selected experiment, consumable by the BENCH_*.json perf trajectory.
type benchReport struct {
	Seed        int64         `json:"seed"`
	Scale       float64       `json:"scale"`
	Parallel    int           `json:"parallel"`
	Experiments []benchRecord `json:"experiments"`
}

type benchRecord struct {
	Experiment string          `json:"experiment"`
	ElapsedMS  float64         `json:"elapsed_ms"`
	Result     json.RawMessage `json:"result"`
}

// newBenchRecord marshals one experiment result, falling back to the
// rendered table when a result type resists JSON.
func newBenchRecord(name string, elapsed time.Duration, res renderable) benchRecord {
	raw, err := json.Marshal(res)
	if err != nil {
		raw, _ = json.Marshal(map[string]string{"render": res.Render()})
	}
	return benchRecord{
		Experiment: name,
		ElapsedMS:  float64(elapsed.Microseconds()) / 1000,
		Result:     raw,
	}
}

// renderable is the contract every experiment result satisfies: a table
// for humans (Render) plus exported fields for -json.
type renderable interface{ Render() string }

// result adapts an experiment's typed return to the registry's: a
// failed run must surface as a nil interface, not a typed nil pointer.
func result[T renderable](res T, err error) (renderable, error) {
	if err != nil {
		return nil, err
	}
	return res, nil
}

type experimentEntry struct {
	name string
	run  func(seed int64, scale float64, parallel int) (renderable, error)
}

func registry() []experimentEntry {
	return []experimentEntry{
		{"table1", func(seed int64, scale float64, parallel int) (renderable, error) {
			opts := experiments.DefaultTable1Options()
			opts.Seed = seed
			opts.Nodes = scaleInt(opts.Nodes, scale, 50)
			opts.Events = scaleInt(opts.Events, scale, 50)
			return result(experiments.RunTable1(opts))
		}},
		{"table1-protocol", func(seed int64, scale float64, parallel int) (renderable, error) {
			opts := experiments.DefaultTable1Options()
			opts.Seed = seed
			opts.UseProtocol = true
			opts.Parallelism = parallel
			// The message-level run is far heavier than the oracle walk;
			// default to a tenth of paper scale at scale 1.
			opts.Nodes = scaleInt(opts.Nodes, scale*0.1, 50)
			opts.Events = scaleInt(opts.Events, scale*0.1, 50)
			return result(experiments.RunTable1(opts))
		}},
		{"fig3a", func(seed int64, scale float64, parallel int) (renderable, error) {
			opts := experiments.DefaultFig3aOptions()
			opts.Seed = seed
			opts.Parallelism = parallel
			opts.Nodes = scaleInt(opts.Nodes, scale, 40)
			opts.Steps = scaleInt(opts.Steps, scale, 400)
			return result(experiments.RunFig3a(opts))
		}},
		{"fig3b", func(seed int64, scale float64, parallel int) (renderable, error) {
			opts := experiments.DefaultFig3bOptions()
			opts.Seed = seed
			opts.Parallelism = parallel
			opts.Nodes = scaleInt(opts.Nodes, scale, 40)
			opts.Steps = scaleInt(opts.Steps, scale, 600)
			opts.FailFrom = opts.Steps / 3
			opts.FailTo = 2 * opts.Steps / 3
			return result(experiments.RunFig3b(opts))
		}},
		{"fig3c", runFig3cd}, {"fig3d", runFig3cd},
		{"fig3e", runFig3ef}, {"fig3f", runFig3ef},
		{"fig3g", func(seed int64, scale float64, parallel int) (renderable, error) {
			opts := experiments.DefaultFig3gOptions()
			opts.Seed = seed
			opts.Parallelism = parallel
			opts.Nodes = scaleInt(opts.Nodes, scale, 40)
			opts.Steps = scaleInt(opts.Steps, scale, 300)
			opts.SubEvery = scaleInt(opts.SubEvery, scale, 50)
			return result(experiments.RunLoadComparison(
				"Figure 3(g) — Root-based vs generic traversal (leader communication)", opts))
		}},
		{"latency", func(seed int64, scale float64, parallel int) (renderable, error) {
			opts := experiments.DefaultLatencyOptions()
			opts.Seed = seed
			opts.Parallelism = parallel
			opts.Nodes = scaleInt(opts.Nodes, scale, 60)
			opts.Events = scaleInt(opts.Events, scale, 40)
			return result(experiments.RunLatency(opts))
		}},
		{"ablations", func(seed int64, scale float64, parallel int) (renderable, error) {
			opts := experiments.DefaultAblationOptions()
			opts.Seed = seed
			opts.Parallelism = parallel
			opts.Nodes = scaleInt(opts.Nodes, scale, 60)
			opts.Steps = scaleInt(opts.Steps, scale, 300)
			return result(experiments.RunAblations(opts))
		}},
		{"analysis", func(seed int64, scale float64, parallel int) (renderable, error) {
			return result(experiments.RunAnalysis(experiments.DefaultAnalysisOptions()))
		}},
		{"chaos", func(seed int64, scale float64, parallel int) (renderable, error) {
			return result(conform.Run(chaosOptions(seed, scale, parallel)))
		}},
		{"chaos-corruption", func(seed int64, scale float64, parallel int) (renderable, error) {
			opts := chaosOptions(seed, scale, parallel)
			// Only the structural-corruption presets: the plain chaos
			// experiment covers the whole suite, this line isolates the
			// bounded-repair machinery for the regression guard.
			opts.Scenarios = []string{"corruption", "byzantine-state"}
			return result(conform.Run(opts))
		}},
		{"conform", func(seed int64, scale float64, parallel int) (renderable, error) {
			opts := conform.DefaultOptions()
			opts.Seed = seed
			opts.Workers = parallel
			opts.Nodes = scaleInt(opts.Nodes, scale, 12)
			return result(conform.Run(opts))
		}},
		{"throughput", func(seed int64, scale float64, parallel int) (renderable, error) {
			opts := conform.DefaultThroughputOptions()
			opts.Seed = seed
			opts.Workers = parallel
			// The nightly configuration: dense bursts, long ticks, sparse
			// subscriptions (see TestThroughputNightly, which asserts the
			// live engines' p50 latency stays below one tick here).
			opts.Nodes = scaleInt(32, scale, 8)
			opts.SubsPerNode = 1
			opts.Events = scaleInt(12000, scale, 400)
			opts.Burst = scaleInt(1200, scale, 40)
			opts.TickEvery = 8 * time.Millisecond
			return result(conform.RunThroughput(opts))
		}},
		{"scale", func(seed int64, scale float64, parallel int) (renderable, error) {
			opts := experiments.DefaultScaleOptions()
			opts.Seed = seed
			opts.Nodes = scaleInt(opts.Nodes, scale, 200)
			opts.Events = scaleInt(opts.Events, scale, 20)
			if parallel != 0 {
				// 0 keeps the preset default (all cores); 1 forces the
				// sequential executor.
				opts.Parallelism = parallel
			}
			return result(experiments.RunScale(opts))
		}},
	}
}

func runFig3cd(seed int64, scale float64, parallel int) (renderable, error) {
	opts := experiments.DefaultFig3cdOptions()
	opts.Seed = seed
	opts.Parallelism = parallel
	opts.Nodes = scaleInt(opts.Nodes, scale, 40)
	opts.Steps = scaleInt(opts.Steps, scale, 500)
	return result(experiments.RunFig3cd(opts))
}

func runFig3ef(seed int64, scale float64, parallel int) (renderable, error) {
	opts := experiments.DefaultFig3efOptions()
	opts.Seed = seed
	opts.Parallelism = parallel
	opts.Nodes = scaleInt(opts.Nodes, scale, 40)
	opts.Steps = scaleInt(opts.Steps, scale, 300)
	opts.SubEvery = scaleInt(opts.SubEvery, scale, 50)
	return result(experiments.RunLoadComparison(
		"Figures 3(e)/(f) — Leader vs epidemic communication (root traversal)", opts))
}

func scaleInt(v int, scale float64, floor int) int {
	out := int(float64(v) * scale)
	if out < floor {
		out = floor
	}
	return out
}

// chaosOptions is the chaos suite's configuration: the cycle engine
// alone, 150 nodes × 2 subscriptions at full scale (at least 50 nodes),
// so every scenario exercises multi-level trees.
func chaosOptions(seed int64, scale float64, parallel int) conform.Options {
	opts := conform.DefaultOptions()
	opts.Seed = seed
	opts.Workers = parallel
	opts.Engines = []string{conform.EngineSim}
	opts.Nodes = scaleInt(150, scale, 50)
	return opts
}
