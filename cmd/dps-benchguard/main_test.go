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
	// The -8 cpu suffix is stripped and ns converts to ms, with or
	// without -benchmem and custom metrics after ns/op.
	m, ok := metrics["BenchmarkTable1Protocol"]
	if !ok || m.MSPerOp < 154 || m.MSPerOp > 155 {
		t.Errorf("Table1Protocol = %+v, %v", m, ok)
	}
	if m := metrics["BenchmarkFig3a"]; m.MSPerOp < 561 || m.MSPerOp > 562 {
		t.Errorf("Fig3a = %+v (custom metric confused the parser?)", m)
	}
	if m := metrics["BenchmarkWireCodec/encode"]; m.MSPerOp <= 0 {
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
	exps, err := parseDPSBenchAll(all + "," + tp)
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
	if _, err := parseDPSBenchAll(all + ",/nonexistent.json"); err == nil {
		t.Error("missing file in the list should error")
	}
}

func TestCompareTolerance(t *testing.T) {
	base := Baseline{
		Benchmarks:  map[string]BenchMetric{"B": {MSPerOp: 100}},
		Experiments: map[string]float64{"table1": 50},
	}
	cases := []struct {
		name     string
		current  Baseline
		failures int
	}{
		{"identical", base, 0},
		{"within tolerance", Baseline{
			Benchmarks:  map[string]BenchMetric{"B": {MSPerOp: 134}},
			Experiments: map[string]float64{"table1": 67},
		}, 0},
		{"time regression", Baseline{
			Benchmarks: map[string]BenchMetric{"B": {MSPerOp: 136}},
		}, 1},
		{"experiment regression", Baseline{
			Experiments: map[string]float64{"table1": 68},
		}, 1},
		{"both regress", Baseline{
			Benchmarks:  map[string]BenchMetric{"B": {MSPerOp: 200}},
			Experiments: map[string]float64{"table1": 100},
		}, 2},
		{"improvement", Baseline{
			Benchmarks: map[string]BenchMetric{"B": {MSPerOp: 50}},
		}, 0},
		{"untracked benchmark ignored", Baseline{
			Benchmarks:  map[string]BenchMetric{"New": {MSPerOp: 9999}},
			Experiments: map[string]float64{"new": 9999},
		}, 0},
	}
	for _, tc := range cases {
		if got := compare(base, tc.current); len(got) != tc.failures {
			t.Errorf("%s: %d failures (%v), want %d", tc.name, len(got), got, tc.failures)
		}
	}
}

func TestCompareTimeNoiseFloorAndSplitTolerance(t *testing.T) {
	base := Baseline{
		Benchmarks:  map[string]BenchMetric{"Tiny": {MSPerOp: 0.0001}, "Big": {MSPerOp: 100}},
		Experiments: map[string]float64{"analysis": 0.002},
	}
	// Sub-millisecond times never gate, whatever the swing.
	noisy := Baseline{
		Benchmarks:  map[string]BenchMetric{"Tiny": {MSPerOp: 0.001}},
		Experiments: map[string]float64{"analysis": 0.02},
	}
	if got := compare(base, noisy); len(got) != 0 {
		t.Errorf("noise-floor times gated: %v", got)
	}
	// Above the floor, the time tolerance applies.
	if got := compare(base, Baseline{
		Benchmarks: map[string]BenchMetric{"Big": {MSPerOp: 100 * (1 + timeTolerance) * 0.99}},
	}); len(got) != 0 {
		t.Errorf("within time tolerance gated: %v", got)
	}
	if got := compare(base, Baseline{
		Benchmarks: map[string]BenchMetric{"Big": {MSPerOp: 100 * (1 + timeTolerance) * 1.01}},
	}); len(got) != 1 {
		t.Errorf("time regression beyond tolerance not gated: %v", got)
	}
}
