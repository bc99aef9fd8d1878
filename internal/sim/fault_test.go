package sim

import (
	"fmt"
	"testing"
)

// dropCollector wires an OnDrop hook that buckets drops by reason.
type dropCollector map[DropReason]int

func (d dropCollector) hook(from, to NodeID, msg any, reason DropReason) { d[reason]++ }

func TestDropReasonDead(t *testing.T) {
	drops := dropCollector{}
	e := NewEngine(Config{Seed: 1, OnDrop: drops.hook})
	a, b := &echoProc{}, &echoProc{}
	_ = e.Add(1, a)
	_ = e.Add(2, b)
	a.env.Send(2, "to-corpse")
	a.env.Send(3, "to-nobody")
	e.Kill(2)
	e.Step()
	if len(b.received) != 0 {
		t.Error("crashed node received a message")
	}
	if drops[DropDead] != 2 || len(drops) != 1 {
		t.Errorf("drops = %v, want 2×DropDead only", drops)
	}
}

func TestDropReasonPartitionLink(t *testing.T) {
	drops := dropCollector{}
	e := NewEngine(Config{Seed: 1, OnDrop: drops.hook})
	a, b, c := &echoProc{}, &echoProc{}, &echoProc{}
	_ = e.Add(1, a)
	_ = e.Add(2, b)
	_ = e.Add(3, c)
	e.CutLink(1, 2)
	if e.Linked(1, 2) || e.Linked(2, 1) {
		t.Fatal("cut link reported as linked")
	}
	a.env.Send(2, "cut")
	b.env.Send(1, "cut-reverse")
	a.env.Send(3, "open")
	e.Step()
	if drops[DropPartition] != 2 || drops[DropLoss] != 0 || drops[DropDead] != 0 {
		t.Errorf("drops = %v, want 2×DropPartition", drops)
	}
	if len(c.received) != 1 {
		t.Errorf("unpartitioned recipient got %d messages, want 1", len(c.received))
	}
	e.HealLink(1, 2)
	a.env.Send(2, "healed")
	e.Step()
	if len(b.received) != 1 || b.received[0] != "healed" {
		t.Errorf("healed link did not deliver: %v", b.received)
	}
}

func TestDropReasonPartitionClass(t *testing.T) {
	drops := dropCollector{}
	e := NewEngine(Config{Seed: 1, OnDrop: drops.hook})
	procs := map[NodeID]*echoProc{}
	for id := NodeID(1); id <= 4; id++ {
		procs[id] = &echoProc{}
		_ = e.Add(id, procs[id])
	}
	// Nodes 3 and 4 split off into class 1.
	e.SetPartitionClass(3, 1)
	e.SetPartitionClass(4, 1)
	procs[1].env.Send(2, "same-side")
	procs[3].env.Send(4, "same-side")
	procs[1].env.Send(3, "cross")
	procs[4].env.Send(2, "cross")
	e.Step()
	if drops[DropPartition] != 2 {
		t.Errorf("drops = %v, want 2×DropPartition", drops)
	}
	if len(procs[2].received) != 1 || len(procs[4].received) != 1 {
		t.Error("intra-class messages did not deliver")
	}
	e.ClearPartitions()
	procs[1].env.Send(3, "after-heal")
	e.Step()
	if len(procs[3].received) != 1 {
		t.Error("ClearPartitions did not heal the class split")
	}
}

// TestPartitionBeforeLossDraw pins the acceptance-gate order: partition
// drops consume no loss draw, so the engine stream position (and with it
// every later loss decision) is a pure function of the messages that
// actually reach the loss gate.
func TestPartitionBeforeLossDraw(t *testing.T) {
	run := func(cutFirst bool) []bool {
		e := NewEngine(Config{Seed: 42, LossRate: 0.5})
		a, b, c := &echoProc{}, &echoProc{}, &echoProc{}
		_ = e.Add(1, a)
		_ = e.Add(2, b)
		_ = e.Add(3, c)
		if cutFirst {
			e.CutLink(1, 2)
		}
		var outcomes []bool
		for i := 0; i < 32; i++ {
			if cutFirst {
				a.env.Send(2, i) // partitioned: must not touch the rng
			}
			before := len(c.received)
			a.env.Send(3, i)
			e.Step()
			outcomes = append(outcomes, len(c.received) > before)
		}
		return outcomes
	}
	plain, cut := run(false), run(true)
	if fmt.Sprint(plain) != fmt.Sprint(cut) {
		t.Errorf("loss draws shifted by partitioned traffic:\n plain %v\n cut   %v", plain, cut)
	}
}

func TestSetLossRateWindow(t *testing.T) {
	e := NewEngine(Config{Seed: 7})
	a, b := &echoProc{}, &echoProc{}
	_ = e.Add(1, a)
	_ = e.Add(2, b)
	e.SetLossRate(1.0)
	if e.LossRate() != 1.0 {
		t.Fatal("LossRate getter mismatch")
	}
	a.env.Send(2, "lost")
	e.Step()
	e.SetLossRate(0)
	a.env.Send(2, "through")
	e.Step()
	if len(b.received) != 1 || b.received[0] != "through" {
		t.Errorf("loss window wrong: %v", b.received)
	}
}

func TestRestartRevivesWithFreshProcess(t *testing.T) {
	e := NewEngine(Config{Seed: 1})
	first := &echoProc{}
	_ = e.Add(1, first)
	other := &echoProc{}
	_ = e.Add(2, other)
	if err := e.Restart(1, &echoProc{}); err == nil {
		t.Error("restarting a live node must fail")
	}
	if err := e.Restart(99, &echoProc{}); err == nil {
		t.Error("restarting an unknown node must fail")
	}
	e.Kill(1)
	if e.Alive(1) || e.AliveCount() != 1 {
		t.Fatal("kill bookkeeping wrong")
	}
	second := &echoProc{}
	if err := e.Restart(1, second); err != nil {
		t.Fatal(err)
	}
	if !e.Alive(1) || e.AliveCount() != 2 {
		t.Error("restart bookkeeping wrong")
	}
	if second.env == nil || second.env.ID() != 1 {
		t.Fatal("restarted process not attached under its old id")
	}
	other.env.Send(1, "welcome-back")
	e.Step()
	if len(second.received) != 1 {
		t.Error("restarted node does not receive")
	}
	if len(first.received) != 0 {
		t.Error("old incarnation still receiving")
	}
}

// TestParallelEquivalenceWithFaults extends the trace-equivalence contract
// to the fault topology: partitions, cuts, restarts and loss windows
// injected between steps yield bit-identical traces at every worker
// count.
func TestParallelEquivalenceWithFaults(t *testing.T) {
	const nodes, steps = 12, 40
	run := func(workers int) []string {
		var drops []string
		e := NewEngine(Config{Seed: 5, Workers: workers, LossRate: 0.05,
			OnDrop: func(from, to NodeID, msg any, reason DropReason) {
				drops = append(drops, fmt.Sprintf("x:%d>%d:%v:%v", from, to, msg, reason))
			}})
		procs := make([]*chatterProc, nodes+1)
		for id := NodeID(1); id <= nodes; id++ {
			procs[id] = &chatterProc{n: nodes}
			_ = e.Add(id, procs[id])
		}
		// Faults for step S apply just before it runs.
		inject := func(step int64) {
			switch step {
			case 5:
				e.SetPartitionClass(1, 1)
				e.SetPartitionClass(2, 1)
				e.CutLink(3, 4)
			case 15:
				e.Kill(6)
				e.SetLossRate(0.3)
			case 25:
				e.ClearPartitions()
				e.SetLossRate(0.05)
				fresh := &chatterProc{n: nodes}
				if err := e.Restart(6, fresh); err != nil {
					t.Error(err)
				}
				procs[6] = fresh
			}
		}
		for i := 0; i < steps; i++ {
			inject(e.Now() + 1)
			e.Step()
		}
		out := drops
		for id := NodeID(1); id <= nodes; id++ {
			for _, ev := range procs[id].trace {
				out = append(out, fmt.Sprintf("%d|%s", id, ev))
			}
		}
		return out
	}
	base := run(1)
	for _, w := range workerCounts()[1:] {
		got := run(w)
		if len(got) != len(base) {
			t.Fatalf("workers=%d: trace length %d vs sequential %d", w, len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: trace diverges at %d: %q vs %q", w, i, got[i], base[i])
			}
		}
	}
}
