package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dps-overlay/dps/internal/conform"
	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
	"github.com/dps-overlay/dps/internal/workload"
)

var updateTraceDigest = flag.Bool("update", false, "rewrite testdata/send_trace.digest from this run")

const sendTraceDigestFile = "testdata/send_trace.digest"

// traceRun is one pinned run of TestSendTraceGolden: a configuration and
// whether faults strike at crashStep.
type traceRun struct {
	name  string
	spec  conform.ConfigSpec
	crash bool
}

// crashStep is when a crash run kills every tenth node and unsubscribes
// one subscription of every fifth survivor; the 200 steps that
// follow cover failure detection, root reclamation, re-attachment, branch
// deletion, the covering repair paths and join retries.
const crashStep = 200

// sendTraceDigest runs a 60-node × 2-subscription overlay (Workload 2,
// seed 11) on the sequential cycle engine for 400 steps, one published
// event every 10 steps from a live node, and hashes every accepted send in
// order: step, sender, recipient and the message's wire encoding (whose
// second byte is its type). It returns the send count and the hex SHA-256.
func sendTraceDigest(t *testing.T, run traceRun) (int, string) {
	t.Helper()
	const (
		nodes = 60
		subs  = 2
		steps = 400
		seed  = 11
	)
	h := sha256.New()
	var (
		sends  int
		encErr error
		buf    []byte
		hdr    [24]byte
	)
	var eng *sim.Engine
	eng = sim.NewEngine(sim.Config{
		Seed: seed,
		OnSend: func(from, to sim.NodeID, msg any) {
			var err error
			buf, err = core.AppendMessage(buf[:0], msg)
			if err != nil && encErr == nil {
				encErr = err
			}
			binary.LittleEndian.PutUint64(hdr[0:], uint64(eng.Now()))
			binary.LittleEndian.PutUint64(hdr[8:], uint64(from))
			binary.LittleEndian.PutUint64(hdr[16:], uint64(to))
			h.Write(hdr[:])
			var n [4]byte
			binary.LittleEndian.PutUint32(n[:], uint32(len(buf)))
			h.Write(n[:])
			h.Write(buf)
			sends++
		},
	})
	dir := core.NewSharedDirectory()
	eng.AddService(dir)
	gen := workload.MustGenerator(workload.Workload2(), seed)
	all := make([]*core.Node, nodes)
	for i := range all {
		cfg := core.DefaultConfig()
		cfg.Directory = core.LiveDirectory{Directory: dir, Alive: eng.Alive}
		run.spec.Apply(&cfg)
		node, err := core.NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Add(sim.NodeID(i+1), node); err != nil {
			t.Fatal(err)
		}
		all[i] = node
	}
	// Subscriptions arrive a few per step during the first 60 steps, so
	// the trace covers group creation, joins and covering as well as the
	// settled upkeep that follows.
	placed := make([][]filter.Subscription, nodes)
	for s := 0; s < subs; s++ {
		for i, node := range all {
			sub := gen.Subscription()
			if err := node.Subscribe(sub); err != nil {
				t.Fatal(err)
			}
			placed[i] = append(placed[i], sub)
			if i%2 == 1 {
				eng.Step()
			}
		}
	}
	var ev core.EventID
	for eng.Now() < steps {
		if run.crash && eng.Now() == crashStep {

			for i := range all {
				switch i % 10 {
				case 3:
					eng.Kill(sim.NodeID(i + 1))
				case 6, 8:
					// Nodes 46 and 58 cover their second filter with their
					// first: withdrawing the first re-propagates a covered
					// filter, withdrawing the second drops a covering edge.
					if err := all[i].Unsubscribe(placed[i][i%10/7]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if eng.Now()%10 == 0 {
			ev++
			pub := int(ev) % nodes
			for !eng.Alive(sim.NodeID(pub + 1)) {
				pub = (pub + 1) % nodes
			}
			if err := all[pub].Publish(ev, gen.Event()); err != nil {
				t.Fatal(err)
			}
		}
		eng.Step()
	}
	if encErr != nil {
		t.Fatalf("encoding a sent message: %v", encErr)
	}
	return sends, fmt.Sprintf("%x", h.Sum(nil))
}

// TestSendTraceGolden pins the cycle engine's full send trace for one
// fault-free leader-mode run, one fault-free epidemic (fanout 2) run and
// one leader-mode run with crashes and unsubscriptions against the digests
// in
// testdata/send_trace.digest: any change to what the protocol sends, to
// whom, when or in what order fails it. A change that alters the protocol
// on purpose regenerates the digests with
//
//	go test ./internal/experiments -run TestSendTraceGolden -update
func TestSendTraceGolden(t *testing.T) {
	leader := conform.ConfigSpec{Name: "leader", Traversal: core.RootBased, Comm: core.LeaderBased}
	runs := []traceRun{
		{name: "leader", spec: leader},
		{name: "epidemic-k2", spec: conform.ConfigSpec{Name: "epidemic-k2", Traversal: core.RootBased, Comm: core.Epidemic, Fanout: 2, CrossFanout: 2}},
		{name: "leader-crash", spec: leader, crash: true},
	}
	var lines []string
	for _, run := range runs {
		sends, digest := sendTraceDigest(t, run)
		lines = append(lines, fmt.Sprintf("%s %d %s", run.name, sends, digest))
	}
	if *updateTraceDigest {
		if err := os.MkdirAll(filepath.Dir(sendTraceDigestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sendTraceDigestFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(sendTraceDigestFile)
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
			t.Errorf("send trace changed:\n  got  %s\n  want %s", lines[i], want[i])
		}
	}
}
