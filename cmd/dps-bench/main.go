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
// corruption) with the continuous structural-invariant checker attached;
// -json emits per-scenario invariant verdicts and time-to-repair
// distributions. The chaos-corruption experiment isolates the two
// corruption presets (corruption, byzantine-state) so the benchmark
// guard tracks the repair machinery's wall-clock on its own line.
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
// -cover runs the selected experiment with the subscription-covering
// layer on (core.Config.CoverRouting); the -json record is named
// "<experiment>+cover" so guarded series stay separate. Only the
// overlay-stress experiments accept it (chaos, chaos-corruption,
// conform, scale) — the paper artefacts reproduce published numbers and
// reject the flag loudly.
//
//	dps-bench -experiment scale -cover -json
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
		cover    = flag.Bool("cover", false, "run with subscription covering (core.Config.CoverRouting); supported by: "+strings.Join(coverExperiments, ", "))
	)
	flag.Parse()
	if *scale <= 0 || *scale > 10 {
		fmt.Fprintln(os.Stderr, "dps-bench: -scale must be in (0, 10]")
		return 2
	}
	want := strings.ToLower(*experiment)
	if *cover && !coverSupported(want) {
		// The paper artefacts (table1, fig3*, analysis, ...) exist to
		// reproduce the paper's numbers bit-identically, so -cover fails
		// loudly there instead of being silently ignored — the same
		// contract as dps-sim's "-scenario list" handling of engines.
		fmt.Fprintf(os.Stderr, "dps-bench: -cover is not supported with -experiment %s; covering applies to: %s\n",
			want, strings.Join(coverExperiments, ", "))
		return 2
	}
	ran := false
	report := benchReport{Seed: *seed, Scale: *scale, Parallel: *parallel}
	for _, exp := range registry() {
		if want != exp.name && !(want == "all" && exp.name != "scale" && exp.name != "conform" && exp.name != "throughput") {
			// "all" covers the paper artefacts; the 50k-node scale run, the
			// wall-clock-bound cross-engine conformance matrix and the
			// sustained-throughput measurement are orders of magnitude
			// heavier (or wall-clock bound) and must be selected explicitly.
			continue
		}
		ran = true
		// Covered runs get their own record name so the benchmark guard
		// tracks "scale" and "scale+cover" as separate series.
		name := exp.name
		if *cover {
			name += "+cover"
		}
		start := time.Now()
		res, err := exp.run(*seed, *scale, *parallel, *cover)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dps-bench: %s: %v\n", name, err)
			return 1
		}
		elapsed := time.Since(start)
		if *asJSON {
			report.Experiments = append(report.Experiments, newBenchRecord(name, elapsed, res))
			continue
		}
		fmt.Println(res.Render())
		fmt.Printf("[%s took %v]\n\n", name, elapsed.Round(time.Millisecond))
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

// coverExperiments lists the experiments -cover applies to: the ones
// that measure or stress the overlay itself rather than reproduce a
// specific paper artefact.
var coverExperiments = []string{"chaos", "chaos-corruption", "conform", "scale"}

func coverSupported(name string) bool {
	for _, n := range coverExperiments {
		if n == name {
			return true
		}
	}
	return false
}

// renderable is the contract every experiment result satisfies: a table
// for humans (Render) plus exported fields for -json.
type renderable interface{ Render() string }

type experimentEntry struct {
	name string
	run  func(seed int64, scale float64, parallel int, cover bool) (renderable, error)
}

func registry() []experimentEntry {
	return []experimentEntry{
		{"table1", func(seed int64, scale float64, parallel int, cover bool) (renderable, error) {
			opts := experiments.DefaultTable1Options()
			opts.Seed = seed
			opts.Nodes = scaleInt(opts.Nodes, scale, 50)
			opts.Events = scaleInt(opts.Events, scale, 50)
			res, err := experiments.RunTable1(opts)
			if err != nil {
				return nil, err
			}
			return res, nil
		}},
		{"table1-protocol", func(seed int64, scale float64, parallel int, cover bool) (renderable, error) {
			opts := experiments.DefaultTable1Options()
			opts.Seed = seed
			opts.UseProtocol = true
			opts.Parallelism = parallel
			// The message-level run is far heavier than the oracle walk;
			// default to a tenth of paper scale at scale 1.
			opts.Nodes = scaleInt(opts.Nodes, scale*0.1, 50)
			opts.Events = scaleInt(opts.Events, scale*0.1, 50)
			res, err := experiments.RunTable1(opts)
			if err != nil {
				return nil, err
			}
			return res, nil
		}},
		{"fig3a", func(seed int64, scale float64, parallel int, cover bool) (renderable, error) {
			opts := experiments.DefaultFig3aOptions()
			opts.Seed = seed
			opts.Parallelism = parallel
			opts.Nodes = scaleInt(opts.Nodes, scale, 40)
			opts.Steps = scaleInt(opts.Steps, scale, 400)
			res, err := experiments.RunFig3a(opts)
			if err != nil {
				return nil, err
			}
			return res, nil
		}},
		{"fig3b", func(seed int64, scale float64, parallel int, cover bool) (renderable, error) {
			opts := experiments.DefaultFig3bOptions()
			opts.Seed = seed
			opts.Parallelism = parallel
			opts.Nodes = scaleInt(opts.Nodes, scale, 40)
			opts.Steps = scaleInt(opts.Steps, scale, 600)
			opts.FailFrom = opts.Steps / 3
			opts.FailTo = 2 * opts.Steps / 3
			res, err := experiments.RunFig3b(opts)
			if err != nil {
				return nil, err
			}
			return res, nil
		}},
		{"fig3c", runFig3cd}, {"fig3d", runFig3cd},
		{"fig3e", runFig3ef}, {"fig3f", runFig3ef},
		{"fig3g", func(seed int64, scale float64, parallel int, cover bool) (renderable, error) {
			opts := experiments.DefaultFig3gOptions()
			opts.Seed = seed
			opts.Parallelism = parallel
			opts.Nodes = scaleInt(opts.Nodes, scale, 40)
			opts.Steps = scaleInt(opts.Steps, scale, 300)
			opts.SubEvery = scaleInt(opts.SubEvery, scale, 50)
			res, err := experiments.RunLoadComparison(
				"Figure 3(g) — Root-based vs generic traversal (leader communication)", opts)
			if err != nil {
				return nil, err
			}
			return res, nil
		}},
		{"latency", func(seed int64, scale float64, parallel int, cover bool) (renderable, error) {
			opts := experiments.DefaultLatencyOptions()
			opts.Seed = seed
			opts.Parallelism = parallel
			opts.Nodes = scaleInt(opts.Nodes, scale, 60)
			opts.Events = scaleInt(opts.Events, scale, 40)
			res, err := experiments.RunLatency(opts)
			if err != nil {
				return nil, err
			}
			return res, nil
		}},
		{"ablations", func(seed int64, scale float64, parallel int, cover bool) (renderable, error) {
			opts := experiments.DefaultAblationOptions()
			opts.Seed = seed
			opts.Parallelism = parallel
			opts.Nodes = scaleInt(opts.Nodes, scale, 60)
			opts.Steps = scaleInt(opts.Steps, scale, 300)
			res, err := experiments.RunAblations(opts)
			if err != nil {
				return nil, err
			}
			return res, nil
		}},
		{"analysis", func(seed int64, scale float64, parallel int, cover bool) (renderable, error) {
			res, err := experiments.RunAnalysis(experiments.DefaultAnalysisOptions())
			if err != nil {
				return nil, err
			}
			return res, nil
		}},
		{"chaos", func(seed int64, scale float64, parallel int, cover bool) (renderable, error) {
			opts := experiments.DefaultChaosOptions()
			opts.Seed = seed
			opts.Parallelism = parallel
			opts.Nodes = scaleInt(opts.Nodes, scale, 50)
			opts.Config.Cover = cover
			res, err := experiments.RunChaos(opts)
			if err != nil {
				return nil, err
			}
			return res, nil
		}},
		{"chaos-corruption", func(seed int64, scale float64, parallel int, cover bool) (renderable, error) {
			opts := experiments.DefaultChaosOptions()
			opts.Seed = seed
			opts.Parallelism = parallel
			opts.Nodes = scaleInt(opts.Nodes, scale, 50)
			// Only the structural-corruption presets: the plain chaos
			// experiment covers the whole suite, this line isolates the
			// bounded-repair machinery for the regression guard.
			opts.Scenarios = []string{"corruption", "byzantine-state"}
			opts.Config.Cover = cover
			res, err := experiments.RunChaos(opts)
			if err != nil {
				return nil, err
			}
			return res, nil
		}},
		{"conform", func(seed int64, scale float64, parallel int, cover bool) (renderable, error) {
			opts := conform.DefaultOptions()
			opts.Seed = seed
			opts.Workers = parallel
			opts.Nodes = scaleInt(opts.Nodes, scale, 12)
			opts.Cover = cover
			res, err := conform.Run(opts)
			if err != nil {
				return nil, err
			}
			return res, nil
		}},
		{"throughput", func(seed int64, scale float64, parallel int, cover bool) (renderable, error) {
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
			res, err := conform.RunThroughput(opts)
			if err != nil {
				return nil, err
			}
			return res, nil
		}},
		{"scale", func(seed int64, scale float64, parallel int, cover bool) (renderable, error) {
			opts := experiments.DefaultScaleOptions()
			opts.Seed = seed
			opts.CoverRouting = cover
			opts.Nodes = scaleInt(opts.Nodes, scale, 200)
			opts.Events = scaleInt(opts.Events, scale, 20)
			if parallel != 0 {
				// 0 keeps the preset default (all cores); 1 forces the
				// sequential executor.
				opts.Parallelism = parallel
			}
			res, err := experiments.RunScale(opts)
			if err != nil {
				return nil, err
			}
			return res, nil
		}},
	}
}

func runFig3cd(seed int64, scale float64, parallel int, cover bool) (renderable, error) {
	opts := experiments.DefaultFig3cdOptions()
	opts.Seed = seed
	opts.Parallelism = parallel
	opts.Nodes = scaleInt(opts.Nodes, scale, 40)
	opts.Steps = scaleInt(opts.Steps, scale, 500)
	res, err := experiments.RunFig3cd(opts)
	if err != nil {
		return nil, err
	}
	return res, nil
}

func runFig3ef(seed int64, scale float64, parallel int, cover bool) (renderable, error) {
	opts := experiments.DefaultFig3efOptions()
	opts.Seed = seed
	opts.Parallelism = parallel
	opts.Nodes = scaleInt(opts.Nodes, scale, 40)
	opts.Steps = scaleInt(opts.Steps, scale, 300)
	opts.SubEvery = scaleInt(opts.SubEvery, scale, 50)
	res, err := experiments.RunLoadComparison(
		"Figures 3(e)/(f) — Leader vs epidemic communication (root traversal)", opts)
	if err != nil {
		return nil, err
	}
	return res, nil
}

func scaleInt(v int, scale float64, floor int) int {
	out := int(float64(v) * scale)
	if out < floor {
		out = floor
	}
	return out
}
