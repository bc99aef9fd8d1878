package main

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
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/experiments.digest from this run")

const experimentsDigestFile = "testdata/experiments.digest"

// wallClockFields are the report fields that measure the machine, not
// the protocol: every other field is a pure function of the seed, the
// scale and the worker count.
var wallClockFields = map[string]bool{
	"elapsed_ms":  true,
	"BuildWall":   true,
	"RunWall":     true,
	"StepsPerSec": true,
}

// zeroWallClock zeroes every wall-clock field of a decoded JSON document
// in place, at any depth.
func zeroWallClock(v any) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			if wallClockFields[k] {
				x[k] = 0
				continue
			}
			zeroWallClock(child)
		}
	case []any:
		for _, child := range x {
			zeroWallClock(child)
		}
	}
}

// reportDigest runs every experiment want selects, as dps-bench -json
// does, and returns the SHA-256 of the report with its wall-clock fields
// zeroed.
func reportDigest(t *testing.T, want string, seed int64, scale float64, parallel int) string {
	t.Helper()
	report := benchReport{Seed: seed, Scale: scale, Parallel: parallel}
	for _, exp := range registry() {
		if !selects(want, exp.name) {
			continue
		}
		res, err := exp.run(seed, scale, parallel)
		if err != nil {
			t.Fatalf("%s: %v", exp.name, err)
		}
		report.Experiments = append(report.Experiments, newBenchRecord(exp.name, 0, res))
	}
	raw, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	zeroWallClock(doc)
	// Maps marshal with sorted keys, so the digest is stable.
	canon, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(canon))
}

// TestExperimentsGolden pins every paper figure, the chaos suites and the
// scale preset against the digests in testdata/experiments.digest: any
// change to a figure's numbers, to a chaos verdict or to the report's
// shape fails it. The scale run fixes two workers, since its report
// carries the resolved worker count. A change that alters the figures
// on purpose regenerates the digests with
//
//	go test ./cmd/dps-bench -run TestExperimentsGolden -update
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at reduced scale")
	}
	runs := []struct {
		name     string
		want     string
		scale    float64
		parallel int
	}{
		{"all-parallel0", "all", 0.05, 0},
		{"all-parallel2", "all", 0.05, 2},
		{"scale-parallel2", "scale", 0.02, 2},
	}
	var lines []string
	for _, r := range runs {
		lines = append(lines, fmt.Sprintf("%s %s", r.name, reportDigest(t, r.want, 1, r.scale, r.parallel)))
	}
	if *updateDigests {
		if err := os.MkdirAll(filepath.Dir(experimentsDigestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(experimentsDigestFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(experimentsDigestFile)
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
		t.Fatalf("digest file has %d runs, want %d", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("experiment report changed:\n  got  %s\n  want %s", lines[i], want[i])
		}
	}
}
