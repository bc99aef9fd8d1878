package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// The engine ticks from a slot slice kept in id order, hands each node
// its slot as its Env, and recycles drained batch buffers.
// These tests pin what those shortcuts must not change.

// tickOrder runs one step and returns the ids in the order they sent
// (every process sends one message per tick).
func tickOrder(e *Engine, sends *[]NodeID) []NodeID {
	*sends = (*sends)[:0]
	e.Step()
	return append([]NodeID(nil), *sends...)
}

// sendOnTick returns a process that sends one message to peer per tick.
func sendOnTick(peer NodeID) *echoProc {
	return &echoProc{onTick: func(p *echoProc) { p.env.Send(peer, "tick") }}
}

func TestAddLowerIDTicksInOrder(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var sends []NodeID
			e := NewEngine(Config{Seed: 1, Workers: workers,
				OnSend: func(from, _ NodeID, _ any) { sends = append(sends, from) }})
			for _, id := range []NodeID{5, 6, 7} {
				if err := e.Add(id, sendOnTick(5)); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := tickOrder(e, &sends), []NodeID{5, 6, 7}; !reflect.DeepEqual(got, want) {
				t.Fatalf("tick order %v, want %v", got, want)
			}
			// Between steps, a node below every existing id, then one in
			// the middle and one above.
			for _, id := range []NodeID{2, 3, 9} {
				if err := e.Add(id, sendOnTick(5)); err != nil {
					t.Fatal(err)
				}
				if id == 2 {
					if got, want := tickOrder(e, &sends), []NodeID{2, 5, 6, 7}; !reflect.DeepEqual(got, want) {
						t.Fatalf("after adding 2: tick order %v, want %v", got, want)
					}
				}
			}
			if got, want := tickOrder(e, &sends), []NodeID{2, 3, 5, 6, 7, 9}; !reflect.DeepEqual(got, want) {
				t.Fatalf("tick order %v, want %v", got, want)
			}
			if got, want := e.AliveIDs(), []NodeID{2, 3, 5, 6, 7, 9}; !reflect.DeepEqual(got, want) {
				t.Fatalf("AliveIDs %v, want %v", got, want)
			}
		})
	}
}

func TestRestartKeepsPlaceAndDeadSendDrops(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var sends []NodeID
			e := NewEngine(Config{Seed: 1, Workers: workers,
				OnSend: func(from, _ NodeID, _ any) { sends = append(sends, from) }})
			for id := NodeID(1); id <= 3; id++ {
				if err := e.Add(id, sendOnTick(1)); err != nil {
					t.Fatal(err)
				}
			}
			e.Step()
			dead := e.Env(2)
			e.Kill(2)
			if got, want := tickOrder(e, &sends), []NodeID{1, 3}; !reflect.DeepEqual(got, want) {
				t.Fatalf("with 2 dead: tick order %v, want %v", got, want)
			}
			// A dead node's Env still exists, but what it sends is dropped
			// before the send hook and the queue.
			sends = sends[:0]
			dead.Send(1, "from the dead")
			if len(sends) != 0 {
				t.Fatalf("dead node's send accepted: %v", sends)
			}
			before := len(e.Process(1).(*echoProc).received)
			e.Step()
			for _, m := range e.Process(1).(*echoProc).received[before:] {
				if m == "from the dead" {
					t.Fatal("dead node's send delivered")
				}
			}
			fresh := sendOnTick(1)
			if err := e.Restart(2, fresh); err != nil {
				t.Fatal(err)
			}
			if fresh.env != dead {
				t.Fatal("restarted node got a new Env")
			}
			if got, want := tickOrder(e, &sends), []NodeID{1, 2, 3}; !reflect.DeepEqual(got, want) {
				t.Fatalf("after restart: tick order %v, want %v", got, want)
			}
			e.Kill(2)
			if got, want := tickOrder(e, &sends), []NodeID{1, 3}; !reflect.DeepEqual(got, want) {
				t.Fatalf("killed again: tick order %v, want %v", got, want)
			}
		})
	}
}

// stamp is a message naming its sender, step and sequence number.
type stamp struct {
	from NodeID
	step int64
	seq  int
}

// keeper keeps every message it receives, with the step it arrived at,
// and on every tick sends a fresh stamp to two peers.
type keeper struct {
	env   Env
	seq   *int
	kept  []stamp
	at    []int64
	peers func(self NodeID, step int64) []NodeID
}

func (k *keeper) Attach(env Env) { k.env = env }

func (k *keeper) OnMessage(_ NodeID, msg any) {
	k.kept = append(k.kept, msg.(stamp))
	k.at = append(k.at, k.env.Now())
}

func (k *keeper) OnTick() {
	for _, to := range k.peers(k.env.ID(), k.env.Now()) {
		*k.seq++
		k.env.Send(to, stamp{from: k.env.ID(), step: k.env.Now(), seq: *k.seq})
	}
}

func TestKeptMessagesSurviveBatchReuse(t *testing.T) {
	for _, latency := range []int64{1, 3} {
		for _, workers := range []int{0, 2} {
			t.Run(fmt.Sprintf("latency=%d/workers=%d", latency, workers), func(t *testing.T) {
				const nodes = 6
				// sent[to] lists what was sent to each node, in send order;
				// the seq counter is per node so the parallel executor's
				// workers never share it.
				sent := map[NodeID][]stamp{}
				drops := 0
				e := NewEngine(Config{Seed: 1, Latency: latency, Workers: workers,
					OnSend: func(_, to NodeID, msg any) { sent[to] = append(sent[to], msg.(stamp)) },
					OnDrop: func(NodeID, NodeID, any, DropReason) { drops++ }})
				keepers := make([]*keeper, nodes)
				for i := range keepers {
					// Traffic varies per step, so recycled buffers are
					// refilled both shorter and longer than before.
					peers := func(self NodeID, step int64) []NodeID {
						if (int64(self)+step)%3 == 0 {
							return nil
						}
						return []NodeID{self%nodes + 1, (self+NodeID(step))%nodes + 1}
					}
					keepers[i] = &keeper{seq: new(int), peers: peers}
					if err := e.Add(NodeID(i+1), keepers[i]); err != nil {
						t.Fatal(err)
					}
				}
				snapshot := func() [][]stamp {
					out := make([][]stamp, nodes)
					for i, k := range keepers {
						out[i] = append([]stamp(nil), k.kept...)
					}
					return out
				}
				var history [][][]stamp
				for step := 1; step <= 40; step++ {
					e.Step()
					if drops > 0 {
						t.Fatalf("step %d: %d envelopes dropped", step, drops)
					}
					history = append(history, snapshot())
					for i, k := range keepers {
						id := NodeID(i + 1)
						// Everything sent to the node at least latency steps
						// ago arrived, once, in send order, and nothing else.
						var want []stamp
						for _, s := range sent[id] {
							if s.step+latency <= int64(step) {
								want = append(want, s)
							}
						}
						if !reflect.DeepEqual(k.kept, want) {
							t.Fatalf("step %d node %d: kept %v, want %v", step, id, k.kept, want)
						}
						for j, at := range k.at {
							if at != k.kept[j].step+latency {
								t.Fatalf("step %d node %d: %v arrived at step %d", step, id, k.kept[j], at)
							}
						}
						// What the node kept three steps ago is unchanged.
						if step > 3 {
							old := history[step-4][i]
							if !slices.Equal(k.kept[:len(old)], old) {
								t.Fatalf("step %d node %d: messages kept at step %d changed", step, id, step-3)
							}
						}
					}
				}
			})
		}
	}
}
