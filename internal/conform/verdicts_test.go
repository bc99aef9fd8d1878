package conform

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/dps-overlay/dps/internal/core"
)

var updateVerdicts = flag.Bool("update", false, "rewrite testdata/chaos_verdicts.digest from this run")

const verdictsDigestFile = "testdata/chaos_verdicts.digest"

// verdictCell is one pinned dps-sim chaos cell: the whole suite on the
// cycle engine alone at one population, variant and seed.
type verdictCell struct {
	name        string
	comm        core.CommMode
	nodes, subs int
	seed        int64
}

// cellOptions returns the options `dps-sim -scenario all -engine sim`
// passes to Run for a cell: its flag defaults (500 × 1, root traversal,
// one event every 10 steps, one worker, fanouts 1) with the cell's
// population, communication mode and seed.
func cellOptions(c verdictCell) Options {
	commName, traversalName := "leader", "root"
	if c.comm == core.Epidemic {
		commName = "epidemic"
	}
	opts := DefaultOptions()
	opts.Config = ConfigSpec{
		Name:        traversalName + "-" + commName,
		Traversal:   core.RootBased,
		Comm:        c.comm,
		Fanout:      1,
		CrossFanout: 1,
	}
	opts.Seed = c.seed
	opts.Nodes = c.nodes
	opts.SubsPerNode = c.subs
	opts.EventEvery = 10
	opts.Workers = 1
	opts.TickEvery = 2 * time.Millisecond
	opts.Engines = []string{EngineSim}
	return opts
}

// verdictDigest runs a cell and returns the SHA-256 of its report as
// `dps-sim -json` prints it (indented, newline-terminated), with every
// elapsed_ms zeroed. The same hash comes from the command line with
//
//	dps-sim -scenario all -engine sim -seed S [flags] -json |
//	    sed -E 's/("elapsed_ms": )[0-9.e+-]+/\10/' | sha256sum
func verdictDigest(t *testing.T, c verdictCell) string {
	t.Helper()
	res, err := Run(cellOptions(c))
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	for i := range res.Scenarios {
		for j := range res.Scenarios[i].Runs {
			res.Scenarios[i].Runs[j].ElapsedMS = 0
		}
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(append(raw, '\n')))
}

// TestChaosVerdictsGolden pins the whole chaos report — every fault,
// sweep, repair time and delivery count — of five dps-sim cells against
// testdata/chaos_verdicts.digest. The cells include ones that end DIRTY
// today (the churn-wave cell at 60 × 2, seed 3, among them), so a
// refactor must leave the digests alone, and a protocol fix that changes
// a verdict on purpose regenerates them with
//
//	go test ./internal/conform -run TestChaosVerdictsGolden -update
func TestChaosVerdictsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five full chaos suites; skipped with -short")
	}
	if raceEnabled {
		// One worker, no goroutines: the detector has nothing to check
		// here and would stretch ~10 s into ~90 s.
		t.Skip("sequential cycle-engine runs; skipped under the race detector")
	}
	cells := []verdictCell{
		{"leader-500x1-s1", core.LeaderBased, 500, 1, 1},
		{"leader-500x1-s2", core.LeaderBased, 500, 1, 2},
		{"leader-500x1-s3", core.LeaderBased, 500, 1, 3},
		{"epidemic-500x1-s1", core.Epidemic, 500, 1, 1},
		{"leader-60x2-s3", core.LeaderBased, 60, 2, 3},
	}
	var lines []string
	for _, c := range cells {
		lines = append(lines, fmt.Sprintf("%s %s", c.name, verdictDigest(t, c)))
	}
	if *updateVerdicts {
		if err := os.MkdirAll(filepath.Dir(verdictsDigestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(verdictsDigestFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(verdictsDigestFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(lines) {
		t.Fatalf("digest file has %d cells, want %d", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("chaos report changed:\n  got  %s\n  want %s", lines[i], want[i])
		}
	}
}
