package main

import (
	"os"
	"path/filepath"
	"testing"
)

const sampleBench = `goos: linux
cpu: Intel(R) Xeon(R)
BenchmarkTable1Protocol-8   	       2	 154179216 ns/op	54605092 B/op	  397508 allocs/op
BenchmarkWireCodec/encode                    	    2000	       140.1 ns/op	       0 B/op	       0 allocs/op
BenchmarkFig3a          	       2	 561580119 ns/op	         0.9358 some-custom-metric	212136660 B/op	 1413462 allocs/op
PASS
`

func TestParseBenchOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	metrics, err := parseBenchOutput(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(metrics) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(metrics), metrics)
	}
	// The -8 cpu suffix is stripped; ns converts to ms; allocs parse even
	// with custom metrics in between.
	m, ok := metrics["BenchmarkTable1Protocol"]
	if !ok || m.AllocsPerOp != 397508 || m.MSPerOp < 154 || m.MSPerOp > 155 {
		t.Errorf("Table1Protocol = %+v, %v", m, ok)
	}
	if m := metrics["BenchmarkFig3a"]; m.AllocsPerOp != 1413462 {
		t.Errorf("Fig3a allocs = %v (custom metric confused the parser?)", m.AllocsPerOp)
	}
	if m := metrics["BenchmarkWireCodec/encode"]; m.AllocsPerOp != 0 || m.MSPerOp <= 0 {
		t.Errorf("WireCodec/encode = %+v", m)
	}
}

func TestParseDPSBenchAllMerges(t *testing.T) {
	dir := t.TempDir()
	all := filepath.Join(dir, "all.json")
	tp := filepath.Join(dir, "tp.json")
	if err := os.WriteFile(all, []byte(`{"experiments":[
		{"experiment":"table1","elapsed_ms":80},
		{"experiment":"fig3a","elapsed_ms":900}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tp, []byte(`{"experiments":[
		{"experiment":"throughput","elapsed_ms":6000},
		{"experiment":"table1","elapsed_ms":85}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	exps, gauges, err := parseDPSBenchAll(all + "," + tp)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 3 {
		t.Fatalf("merged %d experiments, want 3: %v", len(exps), exps)
	}
	if exps["throughput"] != 6000 || exps["fig3a"] != 900 {
		t.Errorf("merge lost an experiment: %v", exps)
	}
	if exps["table1"] != 85 {
		t.Errorf("later file should win collisions: table1 = %v", exps["table1"])
	}
	if gauges != nil {
		t.Errorf("no scale records, want nil gauges: %v", gauges)
	}
	if _, _, err := parseDPSBenchAll(all + ",/nonexistent.json"); err == nil {
		t.Error("missing file in the list should error")
	}
}

func TestParseDPSBenchScaleGauges(t *testing.T) {
	dir := t.TempDir()
	off := filepath.Join(dir, "scale.json")
	on := filepath.Join(dir, "cover.json")
	if err := os.WriteFile(off, []byte(`{"experiments":[
		{"experiment":"scale","elapsed_ms":5000,"result":
		 {"routing_bytes_per_node":120.5,"forwarded_msgs":4200}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(on, []byte(`{"experiments":[
		{"experiment":"scale+cover","elapsed_ms":4000,"result":
		 {"routing_bytes_per_node":80.25,"forwarded_msgs":3100}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	exps, gauges, err := parseDPSBenchAll(off + "," + on)
	if err != nil {
		t.Fatal(err)
	}
	if exps["scale"] != 5000 || exps["scale+cover"] != 4000 {
		t.Errorf("scale elapsed lost: %v", exps)
	}
	want := map[string]float64{
		"scale.routing_bytes_per_node":       120.5,
		"scale.forwarded_msgs":               4200,
		"scale+cover.routing_bytes_per_node": 80.25,
		"scale+cover.forwarded_msgs":         3100,
	}
	for k, v := range want {
		if gauges[k] != v {
			t.Errorf("gauge %s = %v, want %v", k, gauges[k], v)
		}
	}
}

func TestCompareTolerance(t *testing.T) {
	base := Baseline{
		Benchmarks:  map[string]BenchMetric{"B": {MSPerOp: 100, AllocsPerOp: 1000}},
		Experiments: map[string]float64{"table1": 50},
		Gauges:      map[string]float64{"scale.forwarded_msgs": 1000},
	}
	cases := []struct {
		name     string
		current  Baseline
		failures int
	}{
		{"identical", base, 0},
		{"within tolerance", Baseline{
			Benchmarks:  map[string]BenchMetric{"B": {MSPerOp: 114, AllocsPerOp: 1100}},
			Experiments: map[string]float64{"table1": 57},
		}, 0},
		{"time regression", Baseline{
			Benchmarks: map[string]BenchMetric{"B": {MSPerOp: 120, AllocsPerOp: 1000}},
		}, 1},
		{"alloc regression", Baseline{
			Benchmarks: map[string]BenchMetric{"B": {MSPerOp: 100, AllocsPerOp: 1200}},
		}, 1},
		{"experiment regression", Baseline{
			Experiments: map[string]float64{"table1": 60},
		}, 1},
		{"improvement", Baseline{
			Benchmarks: map[string]BenchMetric{"B": {MSPerOp: 50, AllocsPerOp: 500}},
		}, 0},
		{"untracked benchmark ignored", Baseline{
			Benchmarks: map[string]BenchMetric{"New": {MSPerOp: 9999, AllocsPerOp: 9999}},
		}, 0},
		{"gauge regression", Baseline{
			Gauges: map[string]float64{"scale.forwarded_msgs": 1200},
		}, 1},
		{"gauge within tolerance", Baseline{
			Gauges: map[string]float64{"scale.forwarded_msgs": 1100},
		}, 0},
		{"untracked gauge ignored", Baseline{
			Gauges: map[string]float64{"scale+cover.forwarded_msgs": 9999},
		}, 0},
	}
	limits := compareLimits{AllocTol: 0.15, TimeTol: 0.15, MinTimeMS: 1}
	for _, tc := range cases {
		if got := compare(base, tc.current, limits); len(got) != tc.failures {
			t.Errorf("%s: %d failures (%v), want %d", tc.name, len(got), got, tc.failures)
		}
	}
}

func TestCompareTimeNoiseFloorAndSplitTolerance(t *testing.T) {
	base := Baseline{
		Benchmarks:  map[string]BenchMetric{"Tiny": {MSPerOp: 0.0001, AllocsPerOp: 4}, "Big": {MSPerOp: 100}},
		Experiments: map[string]float64{"analysis": 0.002},
	}
	limits := compareLimits{AllocTol: 0.15, TimeTol: 0.5, MinTimeMS: 1}
	// Sub-millisecond times never gate, whatever the swing; their allocs do.
	noisy := Baseline{
		Benchmarks:  map[string]BenchMetric{"Tiny": {MSPerOp: 0.001, AllocsPerOp: 4}},
		Experiments: map[string]float64{"analysis": 0.02},
	}
	if got := compare(base, noisy, limits); len(got) != 0 {
		t.Errorf("noise-floor times gated: %v", got)
	}
	if got := compare(base, Baseline{
		Benchmarks: map[string]BenchMetric{"Tiny": {MSPerOp: 0.0001, AllocsPerOp: 6}},
	}, limits); len(got) != 1 {
		t.Errorf("alloc regression under the time floor not gated: %v", got)
	}
	// Above the floor, the time tolerance applies.
	if got := compare(base, Baseline{
		Benchmarks: map[string]BenchMetric{"Big": {MSPerOp: 140}},
	}, limits); len(got) != 0 {
		t.Errorf("within time tolerance gated: %v", got)
	}
	if got := compare(base, Baseline{
		Benchmarks: map[string]BenchMetric{"Big": {MSPerOp: 160}},
	}, limits); len(got) != 1 {
		t.Errorf("time regression beyond tolerance not gated: %v", got)
	}
}
