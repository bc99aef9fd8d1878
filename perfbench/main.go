// Command perfbench is the repository's benchmark: it runs one workload
// against the overlay as it is deployed (core.DefaultConfig with
// StrictRepair on), checks every delivery against an oracle, and prints
// the end-to-end metrics (--trace 0) or the per-layer metrics measured by
// timing the program from outside (--trace 1). The last line of standard
// output is one JSON object: correct, attempted and failed pairs, metrics.
//
//	perfbench --workload sim-steady --seed 1 --seconds 10 --trace 0
//
// METRICS.md maps each per-layer metric to the end-to-end metric it
// should move, and on which workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloads are the benchmark's inputs; see BENCHMARK.json for why each
// was chosen. sim-churn is not in BENCHMARK.json: under its crash and
// restart churn a subscriber can miss events while the overlay checks
// legal, and a benchmark workload must deliver every pair. It stays
// runnable as the reproduction (see METRICS.md).
var workloads = map[string]func(opts) (*report, error){
	"sim-steady": func(o opts) (*report, error) {
		return runSim(o, simShape{nodes: 2000, perNode: 2, eventEvery: 10})
	},
	"sim-churn": func(o opts) (*report, error) {
		return runSim(o, simShape{nodes: 1000, perNode: 2, eventEvery: 5, churn: true})
	},
	"live-publish": func(o opts) (*report, error) {
		return runNet(o, netShape{nodes: 8, perNode: 8, pacedRate: 6000})
	},
	"tcp-publish": func(o opts) (*report, error) {
		return runNet(o, netShape{tcp: true, nodes: 8, perNode: 8, pacedRate: 1200})
	},
}

type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// setupCount is how many set-ups a run makes: one when traced (set-up
// time is then not reported), else n.
func (o opts) setupCount(n int) int {
	if o.trace {
		return 1
	}
	return n
}

func (o opts) measure() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

func main() { os.Exit(run()) }

func run() int {
	var o opts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: sim-steady, sim-churn, live-publish or tcp-publish")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	o.trace = trace == 1
	wl, ok := workloads[o.workload]
	if !ok || trace < 0 || trace > 1 || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (one of", names(), ") --seed --seconds >0 --trace 0|1")
		return 2
	}
	cpu0 := readCPUTimes()
	rep, err := wl(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	st := stamp(cpu0)
	fmt.Printf("machine: cpu=%q nproc=%d gomaxprocs=%d go=%s steal_share=%.4f\n",
		st.CPUModel, st.NProc, st.GOMAXPROCS, st.GoVersion, st.StealShare)
	if o.trace {
		rep.add("harness.steal_share", st.StealShare, "fraction")
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-%d.json", o.workload, o.seed))
		if err := writeTrace(path, st, rep.trace); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Println("trace:", path)
	}
	return rep.print()
}

func names() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// report collects one run's verdict and metrics.
type report struct {
	workload string
	v        verdict
	metrics  []namedMetric
	notes    []string // metrics that do not apply, with the reason
	trace    traceSummary
}

type namedMetric struct {
	name  string
	value float64
	unit  string
	json  bool // part of the result line, as listed in BENCHMARK.json
}

// add records a metric of the result line.
func (r *report) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, namedMetric{name, v, unit, true})
}

// info records a metric printed for people only: a workload-specific
// view that not every workload has.
func (r *report) info(name string, v float64, unit string) {
	r.metrics = append(r.metrics, namedMetric{name, v, unit, false})
}

func (r *report) na(name, why string) { r.notes = append(r.notes, name+": n/a ("+why+")") }

// print writes the metrics one per line, then the JSON result line. It
// returns the exit code: 1 on any false delivery.
func (r *report) print() int {
	for _, m := range r.metrics {
		fmt.Printf("metric %-36s %.6g %s\n", m.name, m.value, m.unit)
	}
	for _, n := range r.notes {
		fmt.Println("metric", n)
	}
	fmt.Printf("pairs %s: attempted=%d delivered=%d failed=%d extra=%d duplicate=%d false=%d\n",
		r.workload, r.v.expected, r.v.delivered, r.v.missing(), r.v.extra, r.v.dups, len(r.v.falseHits))
	for i, f := range r.v.falseHits {
		if i == 10 {
			fmt.Printf("false delivery: ... %d more\n", len(r.v.falseHits)-i)
			break
		}
		fmt.Println("false delivery:", f)
	}
	type metricJSON struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{Correct: len(r.v.falseHits) == 0, Attempted: r.v.expected, Failed: r.v.missing(),
		Metrics: make(map[string]metricJSON)}
	for _, m := range r.metrics {
		if m.json {
			out.Metrics[m.name] = metricJSON{m.value, m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}
