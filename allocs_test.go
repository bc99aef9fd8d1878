//go:build !race

package dps

import (
	"testing"

	"github.com/dps-overlay/dps/internal/experiments"
)

// TestExperimentAllocs bounds the allocations of one seed-1 run of
// BenchmarkTable1Protocol and BenchmarkFig3a. The counts move by a few
// dozen between runs of one build; each bound is the count measured when
// the bound was set plus 15%, so a real allocation regression fails here
// and ordinary refactors do not. The race detector's instrumentation shifts the counts,
// so the test stays out of race builds.
func TestExperimentAllocs(t *testing.T) {
	for _, pin := range []struct {
		name  string
		run   func() error
		bound float64
	}{
		{"Table1Protocol", func() error {
			_, err := experiments.RunTable1(table1ProtocolOptions(1))
			return err
		}, 391_875}, // 340,761 × 1.15
		{"Fig3a", func() error {
			_, err := experiments.RunFig3a(fig3aOptions(1))
			return err
		}, 1_354_737}, // 1,178,033 × 1.15
	} {
		got := testing.AllocsPerRun(1, func() {
			if err := pin.run(); err != nil {
				t.Fatal(err)
			}
		})
		if got > pin.bound {
			t.Errorf("%s allocs/op = %.0f, bound %.0f", pin.name, got, pin.bound)
		}
		t.Logf("%s allocs/op = %.0f (bound %.0f)", pin.name, got, pin.bound)
	}
}
