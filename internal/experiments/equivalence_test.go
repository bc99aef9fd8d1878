package experiments

import (
	"reflect"
	"runtime"
	"testing"
)

// The cross-engine equivalence suite pins the tentpole contract of the
// parallel executor at the full-protocol level: for one seed, sequential
// and parallel runs must produce identical delivery and contacted
// metrics at every worker count. The sim package proves trace identity
// on a synthetic protocol; these tests prove it survives the real DPS
// node — directory traffic, healing, epidemic gossip and all.

// equivalenceWorkerCounts mirrors the sim package's ladder: sequential,
// two, four, one per CPU.
func equivalenceWorkerCounts() []int {
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// TestTable1ParallelEquivalence: the false-positive experiment through
// the full message-level protocol must be bit-identical across executors.
func TestTable1ParallelEquivalence(t *testing.T) {
	run := func(workers int) *Table1Result {
		res, err := RunTable1(Table1Options{
			Seed: 5, Nodes: 120, Events: 80, UseProtocol: true, Parallelism: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	for _, w := range equivalenceWorkerCounts()[1:] {
		got := run(w)
		for i := range want.Rows {
			// Opts differ only in Parallelism by construction; compare rows.
			if wr, gr := want.Rows[i], got.Rows[i]; wr != gr {
				t.Errorf("workers=%d %s: rows differ\n  seq: %+v\n  par: %+v",
					w, wr.Workload, wr, gr)
			}
		}
	}
}

// TestFig3cdParallelEquivalence: the scalability series — per-window
// median/max message counts under system growth — must be bit-identical,
// which exercises the OnSend/OnDeliver hook sequences and the registry.
func TestFig3cdParallelEquivalence(t *testing.T) {
	run := func(workers int) *Fig3cdResult {
		res, err := RunFig3cd(Fig3cdOptions{
			Seed:        2,
			Nodes:       60,
			Steps:       300,
			JoinEvery:   5,
			EventEvery:  10,
			Window:      100,
			Configs:     smallConfigs(),
			Parallelism: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	for _, w := range equivalenceWorkerCounts()[1:] {
		got := run(w)
		for i := range want.Series {
			ws, gs := want.Series[i], got.Series[i]
			if !reflect.DeepEqual(ws, gs) {
				t.Errorf("workers=%d %s: series differ\n  seq: %+v\n  par: %+v",
					w, ws.Config, ws, gs)
			}
		}
	}
}

// TestFig3aParallelEquivalence: dependability under churn — failures,
// healing, co-leader promotion and the live-directory retry walk — must
// not perturb the metrics either.
func TestFig3aParallelEquivalence(t *testing.T) {
	run := func(workers int) *Fig3aResult {
		res, err := RunFig3a(Fig3aOptions{
			Seed:         7,
			Nodes:        80,
			Steps:        300,
			SubsPerNode:  2,
			EventEvery:   10,
			FailureProbs: []float64{0.05},
			Configs:      smallConfigs(),
			SettleTail:   40,
			Parallelism:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	for _, w := range equivalenceWorkerCounts()[1:] {
		got := run(w)
		for i := range want.Series {
			ws, gs := want.Series[i], got.Series[i]
			if !reflect.DeepEqual(ws, gs) {
				t.Errorf("workers=%d %s: series differ\n  seq: %+v\n  par: %+v",
					w, ws.Config, ws, gs)
			}
		}
	}
}

// TestScalePreset smoke-tests the 50k preset machinery at a CI-sized
// population and pins its determinism across worker counts.
func TestScalePreset(t *testing.T) {
	run := func(workers int) *ScaleResult {
		res, err := RunScale(ScaleOptions{
			Seed: 3, Nodes: 300, SubsPerNode: 1, Events: 20, EventEvery: 2,
			Parallelism: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	if want.DeliveryRatio < 0.9 {
		t.Errorf("delivery ratio %.3f too low for a calm run", want.DeliveryRatio)
	}
	if want.Trees == 0 || want.Groups == 0 {
		t.Errorf("degenerate forest: %d trees, %d groups", want.Trees, want.Groups)
	}
	got := run(4)
	if got.DeliveryRatio != want.DeliveryRatio || got.ContactedPct != want.ContactedPct ||
		got.Trees != want.Trees || got.Groups != want.Groups {
		t.Errorf("protocol metrics differ across executors:\n  seq: %+v\n  par: %+v", want, got)
	}
	if _, err := RunScale(ScaleOptions{}); err == nil {
		t.Error("zero sizes accepted")
	}
}
