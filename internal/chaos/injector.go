package chaos

import (
	"fmt"
	"math/rand"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/sim"
)

// FaultSurface is the engine-level fault-injection surface the injector
// drives. The deterministic cycle engine (*sim.Engine) satisfies it
// natively; the live goroutine runtime (livenet.Hub) and the TCP engine
// harness expose the same primitives, so one scenario timeline replays
// against any of the three engines (see internal/conform). All methods
// are called from the runner goroutine — between steps on the cycle
// engine.
type FaultSurface interface {
	// Now returns the engine's current logical step (wall-clock ticks on
	// live engines).
	Now() int64
	// Kill crashes a node fail-stop: it stops receiving and ticking.
	Kill(id sim.NodeID)
	// CutLink severs the bidirectional link between two nodes.
	CutLink(a, b sim.NodeID)
	// SetPartitionClass assigns a node to a partition class; traffic
	// across class boundaries drops (class 0 is the connected default).
	SetPartitionClass(id sim.NodeID, class int)
	// ClearPartitions heals every cut link and partition class.
	ClearPartitions()
	// SetLossRate sets the uniform message-loss probability.
	SetLossRate(rate float64)
	// AliveIDs returns the live node ids in ascending order.
	AliveIDs() []sim.NodeID
	// AliveCount returns the number of live nodes.
	AliveCount() int
}

// Population is the deployment-level surface the injector drives for
// faults the engine alone cannot express: process restarts and open-system
// churn. The conformance engine implements it; all methods are called
// from the runner goroutine.
type Population interface {
	// Restart revives the crashed node under its old id with a fresh
	// protocol instance that re-issues the node's durable subscriptions.
	Restart(id sim.NodeID)
	// Join adds one fresh subscriber node and returns its id.
	Join() sim.NodeID
	// Leave makes the node withdraw all its subscriptions gracefully
	// (the node keeps running; it just stops being a subscriber).
	Leave(id sim.NodeID)
}

// Corruptor is the optional deployment surface for the structural
// corruption fault family: it forces the node into the op's illegal state
// (core.Node.ApplyCorruption behind whatever engine boundary applies —
// direct call on the cycle engine, Peer.Do/Transport.Do on the live
// engines). It reports whether any state was mutated; the injector ignores
// the report (eligibility depends on node state, which differs across
// engines — recording it would break the cross-engine fault-timeline
// match). Implemented by the conformance engine; discovered by type
// assertion so the injector's construction surface stays unchanged for
// corruption-free scenarios.
type Corruptor interface {
	Corrupt(id sim.NodeID, op core.CorruptionOp) bool
}

// Applied records one materialised fault event for the scenario report:
// what the timeline scripted and which nodes it actually hit.
type Applied struct {
	Step  int64        `json:"step"` // absolute engine step
	Kind  ActionKind   `json:"kind"`
	Nodes []sim.NodeID `json:"nodes,omitempty"`
	Rate  float64      `json:"rate,omitempty"`
	// Links counts the distinct links a CutLinks event actually severed
	// (duplicate random draws are not faults).
	Links int `json:"links,omitempty"`
	// Op names the corruption a Corrupt event applied.
	Op string `json:"op,omitempty"`
}

// Injector replays a scenario timeline against an engine. Drive it by
// calling Step with every engine step from the runner's drive loop: it
// applies every event whose scenario-relative step has come due, in
// timeline order, drawing victims from its own seeded RNG — never from an
// engine stream — so the same scenario materialises the same fault
// timeline on any engine whose live-node id sequence matches.
type Injector struct {
	eng     FaultSurface
	pop     Population
	cor     Corruptor // discovered from pop or eng; nil without corruption support
	checker *Checker  // may be nil; notified of each fault step for TTR
	rng     *rand.Rand
	events  []Event
	idx     int
	offset  int64 // engine step corresponding to scenario step 0

	// down tracks nodes this injector crashed and has not yet restarted —
	// the restartable set, in crash order.
	down []sim.NodeID

	applied []Applied
	minLive int // never crash below this many live nodes
}

// NewInjector builds an injector for the scenario, rooted at the engine's
// current step (the first scenario step is the next engine step). The
// checker may be nil. The seed governs victim selection only.
func NewInjector(eng FaultSurface, pop Population, checker *Checker, sc Scenario, seed int64) (*Injector, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	// Corruption support is optional: the population or the fault surface
	// may implement it.
	cor, ok := pop.(Corruptor)
	if !ok {
		cor, _ = eng.(Corruptor)
	}
	if cor == nil {
		for _, ev := range sc.Events {
			if ev.Kind == Corrupt {
				return nil, fmt.Errorf("chaos: scenario %q scripts corruption but neither population nor engine implements chaos.Corruptor",
					sc.Name)
			}
		}
	}
	return &Injector{
		eng:     eng,
		pop:     pop,
		cor:     cor,
		checker: checker,
		rng:     rand.New(rand.NewSource(seed ^ 0xc4a05)),
		events:  sc.sorted(),
		offset:  eng.Now(),
		minLive: 2,
	}, nil
}

// Done reports whether every scripted event has been applied.
func (inj *Injector) Done() bool { return inj.idx >= len(inj.events) }

// Applied returns the materialised fault log in application order.
func (inj *Injector) Applied() []Applied { return inj.applied }

// Step applies every scripted event due at or before the given engine
// step, in timeline order. Idempotent per step; safe to call with
// monotonically non-decreasing steps.
func (inj *Injector) Step(step int64) {
	rel := step - inj.offset
	var kinds []string
	for inj.idx < len(inj.events) && inj.events[inj.idx].Step <= rel {
		ev := inj.events[inj.idx]
		inj.apply(step, ev)
		inj.idx++
		if label := faultLabel(ev); !hasString(kinds, label) {
			kinds = append(kinds, label)
		}
	}
	if len(kinds) > 0 && inj.checker != nil {
		inj.checker.MarkFaultKinds(step, kinds)
	}
}

// faultLabel names an event for the per-fault time-to-repair breakdown:
// the action kind, refined by the op for corruption events.
func faultLabel(ev Event) string {
	if ev.Kind == Corrupt {
		return "corrupt-" + ev.Op.String()
	}
	return ev.Kind.String()
}

func hasString(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// apply materialises one event. All selection is over sorted id lists
// with draws from the injector's private stream.
func (inj *Injector) apply(step int64, ev Event) {
	rec := Applied{Step: step, Kind: ev.Kind, Rate: ev.Rate}
	switch ev.Kind {
	case Crash:
		for _, id := range inj.pickAlive(inj.resolveCount(ev), true) {
			inj.eng.Kill(id)
			inj.down = append(inj.down, id)
			rec.Nodes = append(rec.Nodes, id)
		}
	case Restart:
		count := ev.Count
		if count == 0 || count > len(inj.down) {
			count = len(inj.down)
		}
		for i := 0; i < count; i++ {
			k := inj.rng.Intn(len(inj.down))
			id := inj.down[k]
			inj.down = append(inj.down[:k], inj.down[k+1:]...)
			inj.pop.Restart(id)
			rec.Nodes = append(rec.Nodes, id)
		}
	case Split:
		for _, id := range inj.pickAlive(inj.resolveCount(ev), false) {
			inj.eng.SetPartitionClass(id, ev.Class)
			rec.Nodes = append(rec.Nodes, id)
		}
	case CutLinks:
		alive := inj.eng.AliveIDs()
		if len(alive) >= 2 {
			// Fixed number of draws (determinism contract: the stream
			// position depends only on the event), but Links reports the
			// DISTINCT links severed — duplicate and self draws are not
			// faults.
			seen := make(map[[2]sim.NodeID]bool, ev.Count)
			for i := 0; i < ev.Count; i++ {
				a := alive[inj.rng.Intn(len(alive))]
				b := alive[inj.rng.Intn(len(alive))]
				if a == b {
					continue
				}
				if a > b {
					a, b = b, a
				}
				if seen[[2]sim.NodeID{a, b}] {
					continue
				}
				seen[[2]sim.NodeID{a, b}] = true
				inj.eng.CutLink(a, b)
				rec.Links++
			}
		}
	case Heal:
		inj.eng.ClearPartitions()
	case SetLoss:
		inj.eng.SetLossRate(ev.Rate)
	case Join:
		for i := 0; i < ev.Count; i++ {
			rec.Nodes = append(rec.Nodes, inj.pop.Join())
		}
	case Leave:
		for _, id := range inj.pickAlive(ev.Count, false) {
			inj.pop.Leave(id)
			rec.Nodes = append(rec.Nodes, id)
		}
	case Corrupt:
		rec.Op = ev.Op.String()
		count := ev.Count
		if count == 0 {
			count = 1
		}
		for _, id := range inj.pickAlive(count, false) {
			inj.cor.Corrupt(id, inj.buildOp(ev.Op, id))
			rec.Nodes = append(rec.Nodes, id)
		}
	default:
		panic(fmt.Sprintf("chaos: unknown action kind %d", ev.Kind))
	}
	inj.applied = append(inj.applied, rec)
}

// buildOp materialises one corruption op for a victim. Each op kind draws
// a FIXED number of values from the injector stream (the determinism
// contract: the stream position after an event depends only on the event),
// and every referenced peer comes from this side of the engine boundary —
// phantom ids from a range no deployment allocates, live peers from the
// sorted alive list — so the op itself ships engine-agnostic data.
func (inj *Injector) buildOp(kind core.CorruptionKind, victim sim.NodeID) core.CorruptionOp {
	op := core.CorruptionOp{Kind: kind}
	switch kind {
	case core.CorruptDanglingParent, core.CorruptForgedView:
		op.Peers = inj.phantoms(2)
	case core.CorruptViewBreak:
		op.Peers = inj.livePeers(2, victim)
	}
	return op
}

// phantoms draws k node ids from a range no deployment allocates: they are
// dead by construction, and dead forever.
func (inj *Injector) phantoms(k int) []sim.NodeID {
	ids := make([]sim.NodeID, 0, k)
	for i := 0; i < k; i++ {
		ids = append(ids, sim.NodeID(1<<30)+sim.NodeID(inj.rng.Intn(1<<20)))
	}
	return ids
}

// livePeers draws up to k live nodes other than the victim. The draw count
// is fixed (k+1 selections) regardless of where the victim lands.
func (inj *Injector) livePeers(k int, victim sim.NodeID) []sim.NodeID {
	picked := inj.pickAlive(k+1, false)
	out := make([]sim.NodeID, 0, k)
	for _, id := range picked {
		if id != victim && len(out) < k {
			out = append(out, id)
		}
	}
	return out
}

// resolveCount turns an event's Count/Frac into a concrete node count
// against the current live population.
func (inj *Injector) resolveCount(ev Event) int {
	n := ev.Count
	if ev.Frac > 0 {
		n += int(ev.Frac * float64(inj.eng.AliveCount()))
	}
	return n
}

// pickAlive draws up to n distinct live nodes. Lethal selections (crash
// victims) are capped so the live population never shrinks below the
// survival floor; non-lethal ones (partition sides, leave waves) may
// cover the whole population.
func (inj *Injector) pickAlive(n int, lethal bool) []sim.NodeID {
	alive := inj.eng.AliveIDs()
	budget := len(alive)
	if lethal {
		budget -= inj.minLive
	}
	if n > budget {
		n = budget
	}
	if n <= 0 {
		return nil
	}
	// Partial Fisher-Yates over the sorted list: deterministic for a
	// given stream position, O(n) swaps.
	for i := 0; i < n; i++ {
		j := i + inj.rng.Intn(len(alive)-i)
		alive[i], alive[j] = alive[j], alive[i]
	}
	return alive[:n]
}
