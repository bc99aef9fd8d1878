// Package chaos is the deterministic fault-scenario engine and the
// continuous protocol-invariant checker for the DPS overlay.
//
// The paper's headline claim is the self-* part: the repair machinery of
// §4.3 returns the semantic trees to a legal configuration after crashes,
// partitions and message loss. Delivery-ratio experiments (Figure 3) test
// that claim indirectly — events still arrive — but never that the
// *structure* is legal. This package tests it directly, in the style of
// self-stabilization work (Feldmann et al., "Self-Stabilizing Supervised
// Publish-Subscribe Systems"): perturb the configuration with a scripted
// fault timeline, then prove the overlay converged back to a legal one by
// checking named structural invariants after every convergence window.
//
// The package has three parts:
//
//   - Scenario: a scripted fault timeline (crash bursts, restarts, timed
//     bidirectional partitions and heals, loss windows, churn waves of
//     join/leave), pure data, with named presets;
//   - Injector: applies a scenario's events as the runner's drive loop
//     reaches their steps, drawing victims from its own seeded RNG so a
//     scenario replays bit-identically at any worker count;
//   - Checker: walks read-only structural snapshots of every live node
//     and validates the legal-configuration invariants — tree acyclicity
//     and connectivity, semantic containment along parent→child edges,
//     group-view symmetry, no orphaned subscribers — reporting violations
//     per sweep and time-to-repair per fault.
//
// The runner that drives both on all three engines is internal/conform.
//
// Determinism contract: on the cycle engine everything the injector and
// checker do happens on the runner goroutine between steps, consumes no
// engine randomness, and iterates nodes in sorted id order — so a
// scenario's full report, like the protocol trace itself, is a pure
// function of (scenario, seed), at any worker count.
package chaos

import (
	"fmt"
	"sort"

	"github.com/dps-overlay/dps/internal/core"
)

// ActionKind enumerates the fault actions a scenario timeline can script.
type ActionKind uint8

// Fault actions.
const (
	// Crash kills Count (plus Frac×live) random live nodes at once.
	Crash ActionKind = iota + 1
	// Restart revives Count random scenario-crashed nodes (all when
	// Count == 0) with fresh protocol state re-issuing their durable
	// subscriptions.
	Restart
	// Split moves Count (plus Frac×live) random live nodes into partition
	// class Class: traffic across the class boundary drops until Heal.
	Split
	// CutLinks severs Count random live-live node pairs (bidirectional).
	CutLinks
	// Heal clears the whole partition topology: class splits and cuts.
	Heal
	// SetLoss sets the uniform message-loss probability to Rate (loss
	// windows open with Rate > 0 and close with Rate = 0).
	SetLoss
	// Join adds Count fresh subscriber nodes (churn arrival wave).
	Join
	// Leave makes Count random live subscribers withdraw all their
	// subscriptions gracefully (churn departure wave).
	Leave
	// Corrupt forces Count random live nodes into the named illegal state
	// (Op) through core.Node.ApplyCorruption — the structural-corruption
	// fault family. Unlike every other kind, Corrupt perturbs protocol
	// *state* rather than the process/network layer: it is the
	// self-stabilization probe (convergence from an arbitrary illegal
	// configuration, not merely from crash-reachable ones).
	Corrupt
)

// String names the action for reports.
func (k ActionKind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Restart:
		return "restart"
	case Split:
		return "split"
	case CutLinks:
		return "cut-links"
	case Heal:
		return "heal"
	case SetLoss:
		return "set-loss"
	case Join:
		return "join"
	case Leave:
		return "leave"
	case Corrupt:
		return "corrupt"
	}
	return "unknown"
}

// Event is one scripted fault: an action applied at a scenario-relative
// step. Fields beyond Kind are action-specific (see ActionKind docs).
type Event struct {
	Step  int64      `json:"step"`
	Kind  ActionKind `json:"kind"`
	Count int        `json:"count,omitempty"`
	Frac  float64    `json:"frac,omitempty"`
	Class int        `json:"class,omitempty"`
	Rate  float64    `json:"rate,omitempty"`
	// Op names the corruption applied by a Corrupt event.
	Op core.CorruptionKind `json:"op,omitempty"`
}

// Scenario is a scripted fault timeline: Events play out over Steps
// engine steps (scenario-relative), then the overlay gets Converge
// fault-free steps to repair before the final invariant verdict.
type Scenario struct {
	Name string `json:"name"`
	// Description is the one-line summary `dps-sim -scenario list` prints.
	Description string  `json:"description,omitempty"`
	Steps       int64   `json:"steps"`
	Converge    int64   `json:"converge"`
	Events      []Event `json:"events"`
	// MaxTTR, when non-zero, declares the scenario's time-to-repair bound:
	// every fault must be followed by an all-clean invariant sweep within
	// MaxTTR steps. Runners report a bound verdict alongside the final
	// clean verdict; the corruption presets ship with declared bounds (the
	// bounded-repair guarantee), the crash/partition presets without.
	MaxTTR int64 `json:"max_ttr,omitempty"`
}

// sorted returns the events in ascending step order (stable), which the
// injector requires. Scenarios authored by the preset constructors are
// already sorted; user-built ones may not be.
func (s Scenario) sorted() []Event {
	evs := append([]Event(nil), s.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Step < evs[j].Step })
	return evs
}

// Validate rejects malformed timelines: events outside [1, Steps],
// nonsensical rates or counts.
func (s Scenario) Validate() error {
	if s.Steps <= 0 || s.Converge < 0 {
		return fmt.Errorf("chaos: scenario %q needs positive Steps and non-negative Converge", s.Name)
	}
	for i, ev := range s.Events {
		if ev.Step < 1 || ev.Step > s.Steps {
			return fmt.Errorf("chaos: scenario %q event %d at step %d outside [1, %d]",
				s.Name, i, ev.Step, s.Steps)
		}
		if ev.Rate < 0 || ev.Rate > 1 {
			return fmt.Errorf("chaos: scenario %q event %d rate %v outside [0, 1]", s.Name, i, ev.Rate)
		}
		if ev.Count < 0 || ev.Frac < 0 || ev.Frac > 1 {
			return fmt.Errorf("chaos: scenario %q event %d has negative count or frac outside [0, 1]",
				s.Name, i)
		}
		if ev.Kind == Split && ev.Class == 0 {
			// Class 0 is the default partition class: "splitting" into it
			// is the clear operation and would fault nothing while the
			// report claims a partition ran.
			return fmt.Errorf("chaos: scenario %q event %d splits into class 0 (use a non-zero class)",
				s.Name, i)
		}
		if ev.Kind == Corrupt && ev.Op.String() == "unknown" {
			return fmt.Errorf("chaos: scenario %q event %d corrupts with unknown op %d",
				s.Name, i, ev.Op)
		}
		if ev.Kind != Corrupt && ev.Op != 0 {
			return fmt.Errorf("chaos: scenario %q event %d sets a corruption op on a %s event",
				s.Name, i, ev.Kind)
		}
	}
	return nil
}

// Presets returns the shipped scenario suite. Timelines are sized for the
// default protocol timescales (heartbeat 10–25 steps, suspicion after two
// periods, view exchange every 30): every fault gets a few detection
// timeouts plus anti-entropy rounds to repair before the next
// perturbation, and the convergence tails cover the slowest repair chain
// (partition-merge of duplicated trees).
func Presets() []Scenario {
	return []Scenario{
		CrashBurst(),
		RestartChurn(),
		PartitionHeal(),
		LossWindow(),
		ChurnWave(),
		Dependability(),
		Corruption(),
		ByzantineState(),
	}
}

// Preset returns the named preset scenario.
func Preset(name string) (Scenario, bool) {
	for _, s := range Presets() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// PresetNames lists the shipped scenario names in suite order.
func PresetNames() []string {
	ps := Presets()
	names := make([]string, len(ps))
	for i, s := range ps {
		names[i] = s.Name
	}
	return names
}

// CrashBurst kills a fifth of the population at once — the paper's
// fail-stop burst: co-leader promotion, root reclamation and re-walks
// must rebuild every tree.
func CrashBurst() Scenario {
	return Scenario{
		Name:        "crash-burst",
		Description: "kill 20% of the population at once; repair must rebuild every tree",
		Steps:       400,
		Converge:    300,
		Events: []Event{
			{Step: 60, Kind: Crash, Frac: 0.20},
		},
	}
}

// RestartChurn crashes a slice of the population and brings the same
// identities back with fresh state, twice — rejoin must merge the
// restarted subscribers into the repaired trees, not duplicate them.
func RestartChurn() Scenario {
	return Scenario{
		Name:        "restart-churn",
		Description: "crash 10% twice and revive the same identities with fresh state",
		Steps:       560,
		Converge:    350,
		Events: []Event{
			{Step: 60, Kind: Crash, Frac: 0.10},
			{Step: 200, Kind: Restart},
			{Step: 340, Kind: Crash, Frac: 0.10},
			{Step: 460, Kind: Restart},
		},
	}
}

// PartitionHeal splits off two fifths of the nodes for ~200 steps. Both
// sides repair independently (duplicated groups, possibly duplicated
// roots); after the heal the merge machinery of §4.2.2 must fold the two
// overlays back into one legal configuration.
func PartitionHeal() Scenario {
	return Scenario{
		Name:        "partition-heal",
		Description: "split off 40% for ~200 steps, then heal and re-merge the overlays",
		Steps:       500,
		Converge:    400,
		Events: []Event{
			{Step: 60, Kind: Split, Frac: 0.40, Class: 1},
			{Step: 260, Kind: Heal},
		},
	}
}

// LossWindow opens a 30% uniform-loss window with a small crash burst in
// the middle: failure detection must not melt down from lost heartbeats,
// and lost repair messages must be retried.
func LossWindow() Scenario {
	return Scenario{
		Name:        "loss-window",
		Description: "30% uniform message loss with a small crash burst mid-window",
		Steps:       460,
		Converge:    350,
		Events: []Event{
			{Step: 60, Kind: SetLoss, Rate: 0.30},
			{Step: 160, Kind: Crash, Frac: 0.05},
			{Step: 300, Kind: SetLoss, Rate: 0},
		},
	}
}

// ChurnWave interleaves join and leave waves with scattered crashes —
// the open-system workload: group creation, adoption and dissolution run
// concurrently with repair.
func ChurnWave() Scenario {
	sc := Scenario{
		Name:        "churn-wave",
		Description: "interleaved join/leave waves with scattered crashes (open system)",
		Steps:       520,
		Converge:    400,
	}
	for step := int64(60); step < 260; step += 20 {
		sc.Events = append(sc.Events, Event{Step: step, Kind: Join, Count: 2})
		sc.Events = append(sc.Events, Event{Step: step + 10, Kind: Leave, Count: 1})
	}
	sc.Events = append(sc.Events,
		Event{Step: 150, Kind: Crash, Count: 2},
		Event{Step: 250, Kind: Crash, Count: 2},
	)
	return sc
}

// Dependability is the combined crash/partition suite in the style of the
// paper's dependability experiment (Figure 3a) plus link faults: a crash
// burst, then a partition overlapping a loss window, then link cuts and a
// final crash-restart cycle.
func Dependability() Scenario {
	return Scenario{
		Name:        "dependability",
		Description: "combined crash burst, partition + loss window, link cuts, restart",
		Steps:       760,
		Converge:    400,
		Events: []Event{
			{Step: 60, Kind: Crash, Frac: 0.15},
			{Step: 220, Kind: Split, Frac: 0.30, Class: 1},
			{Step: 220, Kind: SetLoss, Rate: 0.15},
			{Step: 400, Kind: Heal},
			{Step: 400, Kind: SetLoss, Rate: 0},
			{Step: 460, Kind: CutLinks, Count: 8},
			{Step: 520, Kind: Heal},
			{Step: 560, Kind: Crash, Frac: 0.08},
			{Step: 650, Kind: Restart},
		},
	}
}

// Corruption walks the whole structural-corruption fault family through a
// converged overlay, one op class at a time: semantic drift (widened
// parents), dangling predviews, forged views with phantom leaders,
// leadership deference cycles, view-symmetry breaks, and a split-brain
// duplicate root. Each burst gets the detection machinery's timescales
// (suspicion after ~50 steps, view exchange every 30) to repair before the
// next lands; the declared MaxTTR is the bounded-repair guarantee.
func Corruption() Scenario {
	return Scenario{
		Name:        "corruption",
		Description: "every corruption op in sequence; bounded repair from each illegal state",
		Steps:       480,
		Converge:    400,
		MaxTTR:      340,
		Events: []Event{
			{Step: 60, Kind: Corrupt, Op: core.CorruptWidenParent, Count: 2},
			{Step: 140, Kind: Corrupt, Op: core.CorruptDanglingParent, Count: 2},
			{Step: 220, Kind: Corrupt, Op: core.CorruptViewBreak, Count: 2},
			{Step: 300, Kind: Corrupt, Op: core.CorruptDeferenceCycle, Count: 2},
			{Step: 380, Kind: Corrupt, Op: core.CorruptForgedView, Count: 2},
			{Step: 440, Kind: Corrupt, Op: core.CorruptSplitBrainRoot, Count: 1},
		},
	}
}

// ByzantineState is the corrupt-at-start scenario: the overlay begins the
// timeline already illegal — split-brain duplicate roots seeded at the
// first step — and takes mixed corruption bursts plus a crash while still
// repairing, so corruption-repair paths run concurrently with the
// crash-repair machinery they share code with.
func ByzantineState() Scenario {
	return Scenario{
		Name:        "byzantine-state",
		Description: "split-brain roots seeded at t=0 plus mixed corruption under crashes",
		Steps:       420,
		Converge:    420,
		// The declared repair bound covers the worst-case repair path:
		// the bounded-join backstop anchors after the retry budget
		// (11 retries x 30-tick period ≈ 330 ticks), then suspicion
		// timeouts and view reconciliation close the fault — observed
		// tails reach ~425 ticks across seeds.
		MaxTTR: 460,
		Events: []Event{
			{Step: 1, Kind: Corrupt, Op: core.CorruptSplitBrainRoot, Count: 2},
			{Step: 100, Kind: Corrupt, Op: core.CorruptDeferenceCycle, Count: 2},
			{Step: 100, Kind: Corrupt, Op: core.CorruptForgedView, Count: 2},
			{Step: 180, Kind: Crash, Frac: 0.10},
			{Step: 260, Kind: Corrupt, Op: core.CorruptViewBreak, Count: 2},
			{Step: 260, Kind: Corrupt, Op: core.CorruptWidenParent, Count: 2},
		},
	}
}
