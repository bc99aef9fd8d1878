// Command dps-benchguard maintains the repository's wall-clock
// regression baseline (BENCH_baseline.json) and gates CI on it.
//
// The baseline has two sections: go-bench ms/op (parsed from
// `go test -bench` output) and dps-bench experiment wall-clocks
// (elapsed_ms per experiment, parsed from `dps-bench -json` output). CI
// regenerates the inputs and compares: any tracked benchmark or
// experiment slower than its baseline by more than timeTolerance fails
// the run. Improvements never fail; benchmarks and experiments absent
// from the baseline are reported but pass (commit an updated baseline
// to track them).
//
//	go test -run '^$' -bench 'Table1Protocol$|Fig3a$' . > bench.txt
//	go run ./cmd/dps-bench -experiment table1 -scale 0.1 -json > dps.json
//	go run ./cmd/dps-benchguard -bench bench.txt -dps dps.json           # check
//	go run ./cmd/dps-benchguard -bench bench.txt -dps dps.json -update   # rebaseline
//
// Wall-clocks vary across machines, so the tolerance is loose (it
// catches order-of-magnitude regressions without flaking; the committed
// baseline records one machine's numbers as a trajectory anchor), and
// baselines under minTimeMS are never gated at all (a 0.002 ms metric
// regressing "20%" is scheduler jitter, not a regression).
// Allocation counts are deterministic and gate in plain `go test`
// instead (TestExperimentAllocs and the per-package *Allocs pins).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

const (
	// timeTolerance is the allowed fractional regression in ms/op and
	// elapsed_ms.
	timeTolerance = 0.35
	// minTimeMS is the baseline below which a time is too
	// noise-dominated to gate.
	minTimeMS = 1.0
)

// BenchMetric is one microbenchmark's tracked numbers.
type BenchMetric struct {
	MSPerOp float64 `json:"ms_per_op"`
}

// Baseline is the committed BENCH_baseline.json document.
type Baseline struct {
	Note string `json:"note,omitempty"`
	// Benchmarks maps go-bench names (sub-benchmarks included, -cpu
	// suffix stripped) to their metrics.
	Benchmarks map[string]BenchMetric `json:"benchmarks,omitempty"`
	// Experiments maps dps-bench experiment names to elapsed_ms.
	Experiments map[string]float64 `json:"experiments,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		benchPath = flag.String("bench", "", "path to `go test -bench` output (\"-\" for stdin)")
		dpsPath   = flag.String("dps", "", "comma-separated path(s) to `dps-bench -json` output; documents merge, later files win on name collisions")
		baseline  = flag.String("baseline", "BENCH_baseline.json", "baseline file to check against (or write with -update)")
		update    = flag.Bool("update", false, "write the parsed metrics as the new baseline instead of checking")
		note      = flag.String("note", "", "with -update: note recorded in the baseline")
	)
	flag.Parse()
	if *benchPath == "" && *dpsPath == "" {
		fmt.Fprintln(os.Stderr, "dps-benchguard: need -bench and/or -dps input")
		return 2
	}

	current := Baseline{Note: *note}
	if *benchPath != "" {
		metrics, err := parseBenchOutput(*benchPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dps-benchguard:", err)
			return 2
		}
		if len(metrics) == 0 {
			fmt.Fprintln(os.Stderr, "dps-benchguard: no benchmark lines found in", *benchPath)
			return 2
		}
		current.Benchmarks = metrics
	}
	if *dpsPath != "" {
		exps, err := parseDPSBenchAll(*dpsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dps-benchguard:", err)
			return 2
		}
		current.Experiments = exps
	}

	if *update {
		data, err := json.MarshalIndent(current, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "dps-benchguard:", err)
			return 1
		}
		if err := os.WriteFile(*baseline, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "dps-benchguard:", err)
			return 1
		}
		fmt.Printf("dps-benchguard: wrote %s (%d benchmarks, %d experiments)\n",
			*baseline, len(current.Benchmarks), len(current.Experiments))
		return 0
	}

	baseData, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dps-benchguard:", err)
		return 2
	}
	var base Baseline
	if err := json.Unmarshal(baseData, &base); err != nil {
		fmt.Fprintf(os.Stderr, "dps-benchguard: parsing %s: %v\n", *baseline, err)
		return 2
	}

	failures := compare(base, current)
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "dps-benchguard: %d time regression(s) beyond %.0f%%:\n",
			len(failures), timeTolerance*100)
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		return 1
	}
	fmt.Printf("dps-benchguard: no time regressions beyond %.0f%% (%d benchmarks, %d experiments checked)\n",
		timeTolerance*100, len(current.Benchmarks), len(current.Experiments))
	return 0
}

// compare returns one line per time regressing beyond timeTolerance.
// Baselines under minTimeMS and names missing from either side are
// skipped.
func compare(base, current Baseline) []string {
	var failures []string
	check := func(name, metric string, baseVal, curVal float64) {
		if baseVal < minTimeMS {
			return // noise-dominated: skip
		}
		if curVal > baseVal*(1+timeTolerance) {
			failures = append(failures, fmt.Sprintf("%s %s: %.3f -> %.3f (+%.1f%%)",
				name, metric, baseVal, curVal, (curVal/baseVal-1)*100))
		}
	}
	for _, name := range sortedKeys(current.Benchmarks) {
		if baseM, ok := base.Benchmarks[name]; ok {
			check(name, "ms/op", baseM.MSPerOp, current.Benchmarks[name].MSPerOp)
		}
	}
	for _, name := range sortedKeys(current.Experiments) {
		if baseVal, ok := base.Experiments[name]; ok {
			check(name, "elapsed_ms", baseVal, current.Experiments[name])
		}
	}
	return failures
}

// sortedKeys returns m's keys in order, so failures list deterministically.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// benchLine matches one go-bench result line, e.g.
//
//	BenchmarkTable1Protocol-8   6   182000000 ns/op   54900000 B/op   397834 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op`)

// parseBenchOutput extracts ms/op per benchmark from `go test -bench`
// text. Repeated names (e.g. -count > 1) keep the last occurrence.
func parseBenchOutput(path string) (map[string]BenchMetric, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	out := make(map[string]BenchMetric)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		out[m[1]] = BenchMetric{MSPerOp: ns / 1e6}
	}
	return out, sc.Err()
}

// parseDPSBenchAll merges one or more comma-separated `dps-bench -json`
// documents into a single experiment -> elapsed_ms table. Experiments
// excluded from `-experiment all` (throughput, conform, scale) arrive as
// separate documents; later files win on name collisions.
func parseDPSBenchAll(paths string) (map[string]float64, error) {
	merged := make(map[string]float64)
	for _, path := range strings.Split(paths, ",") {
		exps, err := parseDPSBench(strings.TrimSpace(path))
		if err != nil {
			return nil, err
		}
		for name, ms := range exps {
			merged[name] = ms
		}
	}
	return merged, nil
}

// parseDPSBench extracts experiment -> elapsed_ms from a
// `dps-bench -json` document.
func parseDPSBench(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Experiments []struct {
			Experiment string  `json:"experiment"`
			ElapsedMS  float64 `json:"elapsed_ms"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	out := make(map[string]float64, len(doc.Experiments))
	for _, e := range doc.Experiments {
		out[e.Experiment] = e.ElapsedMS
	}
	return out, nil
}
