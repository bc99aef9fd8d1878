package sim

// The sharded parallel step executor.
//
// Strategy: a step's work decomposes into independent units — one unit
// per delivered message and one per live node's tick. Units touching the
// same node must run in the sequential executor's relative order (that
// node's deliveries in batch order, then its tick); units touching
// different nodes are independent because nodes interact only through
// messages, and messages sent during step S deliver at S+Latency ≥ S+1.
//
// Nodes are therefore sharded across W workers by NodeID. Each worker
// walks its shard's deliveries in batch order and then its shard's ticks
// in ascending NodeID order, which preserves every per-node order. Sends
// are buffered per unit; after the pool drains, the coordinator merges
// the buffers in global unit order — batch order first, then tick order —
// which is exactly the order in which the sequential executor would have
// appended to the queue. The outbound queue is therefore bit-identical,
// and so is every subsequent step.
//
// Randomness: per-node streams are already private to their node (one
// worker each). The engine's own stream decides message loss; those draws
// happen on the coordinator during the pre-pass, in batch order, exactly
// as the sequential executor draws them — so the stream position stays
// identical across worker counts. Engine hooks (OnSend/OnDeliver/OnDrop)
// also fire on the coordinator only: OnDrop/OnDeliver during the
// pre-pass, OnSend during the merge.
//
// Constraints: engine mutations (Add, Kill) and driver-side Env.Send must
// happen between steps — the same contract the experiment harnesses
// already follow — and shared state reached by node code mid-step must be
// execution-order independent (register it as a Service; see
// core.SharedDirectory).

import (
	"runtime"
	"sync"
)

// deliveryTask is one delivery unit: the envelope, its recipient's slot
// and its global unit index (batch position among accepted deliveries).
type deliveryTask struct {
	unit int
	env  envelope
	s    *slot
}

// tickTask is one tick unit: the node's slot and its global unit index
// (delivery count + position in ascending NodeID order).
type tickTask struct {
	unit int
	s    *slot
}

// parScratch holds the parallel executor's reusable per-step state so
// steady-state steps allocate only what the protocol itself sends.
type parScratch struct {
	deliv [][]deliveryTask // per shard, batch order
	ticks [][]tickTask     // per shard, ascending NodeID order
	bufs  [][]envelope     // per unit send buffers, reused across steps
}

// resolveWorkers maps Config.Workers onto an executor width.
func (e *Engine) resolveWorkers() int {
	w := e.cfg.Workers
	if w < 0 {
		w = runtime.NumCPU()
	}
	if w < 1 {
		w = 1
	}
	return w
}

// stepParallel runs one step's deliveries and ticks on w workers,
// reproducing the sequential executor's trace exactly.
func (e *Engine) stepParallel(batch []envelope, w int) {
	if e.par == nil {
		e.par = &parScratch{}
	}
	p := e.par
	for len(p.deliv) < w {
		p.deliv = append(p.deliv, nil)
		p.ticks = append(p.ticks, nil)
	}
	for i := 0; i < w; i++ {
		p.deliv[i] = p.deliv[i][:0]
		p.ticks[i] = p.ticks[i][:0]
	}

	// Pre-pass (coordinator): run the shared acceptance gate in batch
	// order — identical drops, hook firings and engine-stream draws to
	// the sequential executor — and shard the surviving deliveries.
	units := 0
	for _, env := range batch {
		s, ok := e.accept(env)
		if !ok {
			continue
		}
		sh := shardOf(env.to, w)
		p.deliv[sh] = append(p.deliv[sh], deliveryTask{unit: units, env: env, s: s})
		units++
	}
	// Shard the ticks in ascending NodeID order (e.order is sorted).
	for _, s := range e.order {
		if s.alive {
			sh := shardOf(s.id, w)
			p.ticks[sh] = append(p.ticks[sh], tickTask{unit: units, s: s})
			units++
		}
	}

	// Per-unit send buffers, reused across steps: each unit's buffer is
	// cleared and resliced when the merge drains it, so slots arrive here
	// empty (new slots start nil; appending into a nil buffer allocates).
	for len(p.bufs) < units {
		p.bufs = append(p.bufs, nil)
	}
	bufs := p.bufs

	// Fan out. A worker owns every unit of its shard's nodes, so each
	// node's deliveries run in batch order followed by its tick, with no
	// cross-worker ordering requirement and no barrier between phases.
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func(shard int) {
			defer wg.Done()
			for _, t := range p.deliv[shard] {
				t.s.sink = &bufs[t.unit]
				t.s.proc.OnMessage(t.env.from, t.env.msg)
				t.s.sink = nil
			}
			for _, t := range p.ticks[shard] {
				t.s.sink = &bufs[t.unit]
				t.s.proc.OnTick()
				t.s.sink = nil
			}
		}(i)
	}
	wg.Wait()

	// Merge (coordinator): global unit order is delivery batch order, then
	// ascending NodeID tick order — the sequential append order.
	out := e.dueBucket()
	for i := 0; i < units; i++ {
		buf := bufs[i]
		for _, env := range buf {
			if e.cfg.OnSend != nil {
				e.cfg.OnSend(env.from, env.to, env.msg)
			}
			*out = append(*out, env)
		}
		// Zero the drained buffer so message payloads from a large step
		// (e.g. an overlay build phase) do not stay pinned through the
		// rest of the run; keep the capacity for reuse.
		clear(buf)
		bufs[i] = buf[:0]
	}
}

// shardOf maps a node onto one of w workers. The mapping is stable as the
// population grows, keeps contiguous ID ranges spread evenly, and — like
// everything in the executor — has no bearing on the trace, only on which
// goroutine does the work.
func shardOf(id NodeID, w int) int {
	return int(uint64(id) % uint64(w))
}
