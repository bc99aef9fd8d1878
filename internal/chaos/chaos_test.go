package chaos

import (
	"fmt"
	"strings"
	"testing"

	"github.com/dps-overlay/dps/internal/core"
	"github.com/dps-overlay/dps/internal/filter"
	"github.com/dps-overlay/dps/internal/sim"
)

// af parses one attribute filter from a subscription string.
func af(t *testing.T, s string) filter.AttrFilter {
	t.Helper()
	sub, err := filter.ParseSubscription(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	fs, err := filter.SubscriptionFilters(sub)
	if err != nil {
		t.Fatalf("filters %q: %v", s, err)
	}
	return fs[0]
}

// fakeTarget is a hand-built configuration for checker unit tests.
type fakeTarget struct {
	snaps  map[sim.NodeID][]core.MembershipSnapshot
	owners map[string]sim.NodeID
}

func (f *fakeTarget) AliveIDs() []sim.NodeID {
	var ids []sim.NodeID
	for id := range f.snaps {
		ids = append(ids, id)
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if ids[j] < ids[i] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	return ids
}

func (f *fakeTarget) StructuralSnapshot(id sim.NodeID) []core.MembershipSnapshot {
	return f.snaps[id]
}

func (f *fakeTarget) TreeOwner(attr string) (sim.NodeID, bool) {
	id, ok := f.owners[attr]
	return id, ok
}

// legalWorld builds a minimal legal configuration: node 1 owns the price
// tree root, node 2 holds a child group under it with one subscription.
func legalWorld(t *testing.T) *fakeTarget {
	t.Helper()
	rootAF := filter.UniversalFilter("price")
	childAF := af(t, "price < 100")
	root := core.MembershipSnapshot{
		Key: rootAF.Key(), AF: rootAF, IsRoot: true, Leader: 1,
		Members:  []sim.NodeID{1},
		Branches: []core.Branch{{AF: childAF, Nodes: []sim.NodeID{2}}},
	}
	child := core.MembershipSnapshot{
		Key: childAF.Key(), AF: childAF, Leader: 2,
		Members: []sim.NodeID{2},
		Parent:  core.Branch{AF: rootAF, Nodes: []sim.NodeID{1}},
		Subs:    1,
	}
	return &fakeTarget{
		snaps: map[sim.NodeID][]core.MembershipSnapshot{
			1: {root},
			2: {child},
		},
		owners: map[string]sim.NodeID{"price": 1},
	}
}

func sweep(t *testing.T, w *fakeTarget) CheckRecord {
	t.Helper()
	c := NewChecker(w, CheckerOptions{LeaderMode: true})
	return c.Check(1)
}

func wantViolation(t *testing.T, rec CheckRecord, invariant, detailFrag string) {
	t.Helper()
	if rec.ByInvariant[invariant] == 0 {
		t.Fatalf("no %s violation; record: %+v", invariant, rec)
	}
	for _, v := range rec.Sample {
		if v.Invariant == invariant && strings.Contains(v.Detail, detailFrag) {
			return
		}
	}
	t.Fatalf("no %s violation mentioning %q; sample: %+v", invariant, detailFrag, rec.Sample)
}

func TestCheckerLegalConfigurationIsClean(t *testing.T) {
	rec := sweep(t, legalWorld(t))
	if rec.Total != 0 {
		t.Fatalf("legal configuration flagged: %+v", rec)
	}
	if rec.LiveNodes != 2 || rec.ActiveGroups != 2 {
		t.Errorf("census wrong: %+v", rec)
	}
}

func TestCheckerDetectsParentCycle(t *testing.T) {
	w := legalWorld(t)
	otherAF := af(t, "price > 500")
	childAF := af(t, "price < 100")
	// Node 3 holds "price > 500" whose parent is the child group, while
	// node 2's child group claims "price > 500" as its parent: a cycle
	// (and with it containment breaches — the filters are disjoint).
	w.snaps[3] = []core.MembershipSnapshot{{
		Key: otherAF.Key(), AF: otherAF, Leader: 3,
		Members: []sim.NodeID{3},
		Parent:  core.Branch{AF: childAF, Nodes: []sim.NodeID{2}},
	}}
	w.snaps[2][0].Parent = core.Branch{AF: otherAF, Nodes: []sim.NodeID{3}}
	rec := sweep(t, w)
	wantViolation(t, rec, InvAcyclic, "cycle")
	wantViolation(t, rec, InvContainment, "does not include")
	// The cycle also cuts both groups off the root.
	wantViolation(t, rec, InvConnected, "chain up")
}

func TestCheckerDetectsDeadOwner(t *testing.T) {
	w := legalWorld(t)
	w.owners["price"] = 99 // not a live node
	rec := sweep(t, w)
	wantViolation(t, rec, InvConnected, "owner 99 is dead")
}

func TestCheckerDetectsOwnerWithoutRootGroup(t *testing.T) {
	w := legalWorld(t)
	w.owners["price"] = 2 // live, but holds no root membership
	rec := sweep(t, w)
	wantViolation(t, rec, InvConnected, "holds no active root group")
}

func TestCheckerDetectsUnreachableGroupDownward(t *testing.T) {
	w := legalWorld(t)
	// Root forgets its branch to the child: upward chain intact, but
	// dissemination can no longer reach the group.
	w.snaps[1][0].Branches = nil
	rec := sweep(t, w)
	wantViolation(t, rec, InvConnected, "unreachable from the root via succview")
}

func TestCheckerDetectsViewAsymmetry(t *testing.T) {
	w := legalWorld(t)
	// The child group's view names live node 1, which does not hold it.
	w.snaps[2][0].Members = append(w.snaps[2][0].Members, 1)
	rec := sweep(t, w)
	wantViolation(t, rec, InvViewSymmetry, "does not hold the group")
}

func TestCheckerDetectsDeadLeaderAndLeaderless(t *testing.T) {
	w := legalWorld(t)
	w.snaps[2][0].Leader = 42
	rec := sweep(t, w)
	wantViolation(t, rec, InvViewSymmetry, "leader 42 is dead")

	w.snaps[2][0].Leader = 0
	rec = sweep(t, w)
	wantViolation(t, rec, InvViewSymmetry, "leaderless")
}

func TestCheckerDetectsOrphanedSubscriber(t *testing.T) {
	w := legalWorld(t)
	// All predview contacts of the subscriber's membership are dead.
	w.snaps[2][0].Parent.Nodes = []sim.NodeID{77}
	rec := sweep(t, w)
	wantViolation(t, rec, InvNoOrphans, "no live predview contact at any instance")
}

func TestCheckerDetectsJoiningSubscriber(t *testing.T) {
	w := legalWorld(t)
	w.snaps[2][0].Joining = true
	rec := sweep(t, w)
	wantViolation(t, rec, InvNoOrphans, "still joining")
}

// TestCheckerDetectsDeferenceChain pins the group-level leadership clause:
// two live holders of one group each believing the other leads is illegal
// even though every per-instance clause (live holder leader) passes.
func TestCheckerDetectsDeferenceChain(t *testing.T) {
	w := legalWorld(t)
	childAF := af(t, "price < 100")
	rootAF := filter.UniversalFilter("price")
	w.snaps[2][0].Leader = 3
	w.snaps[2][0].Members = []sim.NodeID{2, 3}
	w.snaps[3] = []core.MembershipSnapshot{{
		Key: childAF.Key(), AF: childAF, Leader: 2,
		Members: []sim.NodeID{2, 3},
		Parent:  core.Branch{AF: rootAF, Nodes: []sim.NodeID{1}},
	}}
	rec := sweep(t, w)
	wantViolation(t, rec, InvViewSymmetry, "no instance acknowledges leadership")
}

// TestCheckerDetectsSplitBrainRoots pins the split-brain clause: two root
// instances each claiming tree leadership for themselves. A mirror naming
// the owner as leader stays legal.
func TestCheckerDetectsSplitBrainRoots(t *testing.T) {
	w := legalWorld(t)
	rootAF := filter.UniversalFilter("price")
	w.snaps[2] = append(w.snaps[2], core.MembershipSnapshot{
		Key: rootAF.Key(), AF: rootAF, IsRoot: true, Leader: 2,
		Members: []sim.NodeID{2},
	})
	rec := sweep(t, w)
	wantViolation(t, rec, InvConnected, "split-brain")

	// The same second instance as a legal co-owner mirror: clean.
	w.snaps[2][1].Leader = 1
	w.snaps[2][1].Members = []sim.NodeID{1, 2}
	if rec := sweep(t, w); rec.ByInvariant[InvConnected] != 0 {
		t.Fatalf("legal root mirror flagged: %+v", rec)
	}
}

// TestCheckerDetectsWidenedParentFilter pins the containment clause against
// the widened-parent corruption: a predview label that fails to include the
// group's own filter (semantic drift delivery ratios cannot see).
func TestCheckerDetectsWidenedParentFilter(t *testing.T) {
	w := legalWorld(t)
	w.snaps[2][0].Parent.AF = af(t, "price > 500")
	rec := sweep(t, w)
	wantViolation(t, rec, InvContainment, "does not include group filter")
}

func TestCheckerEpidemicModeSkipsLeaderClauses(t *testing.T) {
	w := legalWorld(t)
	w.snaps[1][0].Leader = 0
	w.snaps[2][0].Leader = 0
	c := NewChecker(w, CheckerOptions{LeaderMode: false})
	if rec := c.Check(1); rec.Total != 0 {
		t.Fatalf("leaderless groups flagged outside leader mode: %+v", rec)
	}
}

func TestCheckerTimeToRepair(t *testing.T) {
	w := legalWorld(t)
	c := NewChecker(w, CheckerOptions{LeaderMode: true})

	// Break the configuration, mark the fault, observe dirty sweeps.
	saved := w.snaps[2][0].Parent.Nodes
	w.snaps[2][0].Parent.Nodes = []sim.NodeID{77}
	c.MarkFault(12)
	c.Check(20)
	if len(c.Records()) != 1 || c.Records()[0].Total == 0 {
		t.Fatalf("dirty sweep missing: %+v", c.Records())
	}
	if c.FinalClean() {
		t.Fatal("FinalClean true while violations outstanding")
	}
	if got := c.Unrepaired(); len(got) != 1 || got[0] != 12 {
		t.Fatalf("Unrepaired = %v, want [12]", got)
	}

	// Repair and watch the fault close with the right TTR.
	w.snaps[2][0].Parent.Nodes = saved
	c.Check(30)
	if !c.FinalClean() {
		t.Fatal("clean sweep not recorded")
	}
	reps := c.Repairs()
	if len(reps) != 1 || reps[0].FaultStep != 12 || reps[0].CleanStep != 30 || reps[0].Steps != 18 {
		t.Fatalf("repairs = %+v", reps)
	}
	if len(c.Unrepaired()) != 0 {
		t.Fatal("pending fault not cleared")
	}
}

func TestScenarioValidate(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
		ok   bool
	}{
		{"preset", CrashBurst(), true},
		{"no-steps", Scenario{Name: "x"}, false},
		{"event-out-of-range", Scenario{Name: "x", Steps: 10,
			Events: []Event{{Step: 11, Kind: Crash, Count: 1}}}, false},
		{"bad-rate", Scenario{Name: "x", Steps: 10,
			Events: []Event{{Step: 1, Kind: SetLoss, Rate: 1.5}}}, false},
		{"bad-frac", Scenario{Name: "x", Steps: 10,
			Events: []Event{{Step: 1, Kind: Crash, Frac: 2}}}, false},
		{"corrupt", Scenario{Name: "x", Steps: 10,
			Events: []Event{{Step: 1, Kind: Corrupt, Op: core.CorruptDanglingParent}}}, true},
		{"corrupt-unknown-op", Scenario{Name: "x", Steps: 10,
			Events: []Event{{Step: 1, Kind: Corrupt, Op: 99}}}, false},
		{"corrupt-missing-op", Scenario{Name: "x", Steps: 10,
			Events: []Event{{Step: 1, Kind: Corrupt}}}, false},
		{"op-on-crash", Scenario{Name: "x", Steps: 10,
			Events: []Event{{Step: 1, Kind: Crash, Count: 1, Op: core.CorruptViewBreak}}}, false},
	}
	for _, tc := range cases {
		if err := tc.sc.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	for _, sc := range Presets() {
		if err := sc.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", sc.Name, err)
		}
	}
	if names := PresetNames(); len(names) != 8 {
		t.Errorf("PresetNames = %v, want 8 presets", names)
	}
	for _, sc := range Presets() {
		if sc.Description == "" {
			t.Errorf("preset %s has no description", sc.Name)
		}
	}
	for _, name := range []string{"corruption", "byzantine-state"} {
		sc, ok := Preset(name)
		if !ok {
			t.Fatalf("Preset(%s) not found", name)
		}
		if sc.MaxTTR <= 0 {
			t.Errorf("%s declares no time-to-repair bound", name)
		}
		if sc.MaxTTR > sc.Steps+sc.Converge {
			t.Errorf("%s bound %d not observable within %d steps",
				name, sc.MaxTTR, sc.Steps+sc.Converge)
		}
	}
	if _, ok := Preset("crash-burst"); !ok {
		t.Error("Preset(crash-burst) not found")
	}
	if _, ok := Preset("nope"); ok {
		t.Error("Preset(nope) found")
	}
}

// tickerProc is a minimal process for injector tests.
type tickerProc struct{ env sim.Env }

func (p *tickerProc) Attach(env sim.Env)               {}
func (p *tickerProc) OnMessage(from sim.NodeID, m any) {}
func (p *tickerProc) OnTick()                          {}

// fakePop records population-level fault calls.
type fakePop struct {
	eng      *sim.Engine
	restarts []sim.NodeID
	joins    int
	leaves   []sim.NodeID
	nextID   sim.NodeID
}

func (p *fakePop) Restart(id sim.NodeID) {
	p.restarts = append(p.restarts, id)
	_ = p.eng.Restart(id, &tickerProc{})
}

func (p *fakePop) Join() sim.NodeID {
	p.joins++
	p.nextID++
	id := p.nextID
	_ = p.eng.Add(id, &tickerProc{})
	return id
}

func (p *fakePop) Leave(id sim.NodeID) { p.leaves = append(p.leaves, id) }

// drive runs n engine steps, applying the injector's due events just
// before each one — the conformance runner's drive loop in miniature.
func drive(eng *sim.Engine, inj *Injector, n int) {
	for i := 0; i < n; i++ {
		inj.Step(eng.Now() + 1)
		eng.Step()
	}
}

func TestInjectorAppliesTimeline(t *testing.T) {
	eng := sim.NewEngine(sim.Config{Seed: 3})
	pop := &fakePop{eng: eng, nextID: 100}
	for id := sim.NodeID(1); id <= 20; id++ {
		_ = eng.Add(id, &tickerProc{})
	}
	sc := Scenario{
		Name:  "t",
		Steps: 50,
		Events: []Event{
			{Step: 5, Kind: Crash, Count: 4},
			{Step: 10, Kind: Split, Count: 5, Class: 1},
			{Step: 12, Kind: SetLoss, Rate: 0.5},
			{Step: 20, Kind: Restart},
			{Step: 25, Kind: Heal},
			{Step: 25, Kind: SetLoss, Rate: 0},
			{Step: 30, Kind: Join, Count: 3},
			{Step: 35, Kind: Leave, Count: 2},
			{Step: 40, Kind: CutLinks, Count: 3},
		},
	}
	inj, err := NewInjector(eng, pop, nil, sc, 7)
	if err != nil {
		t.Fatal(err)
	}

	drive(eng, inj, 7)
	if eng.AliveCount() != 16 {
		t.Fatalf("after crash: alive = %d, want 16", eng.AliveCount())
	}
	drive(eng, inj, 5) // through step 12
	if eng.LossRate() != 0.5 {
		t.Error("loss window did not open")
	}
	drive(eng, inj, 10) // through step 22
	if len(pop.restarts) != 4 {
		t.Fatalf("restarts = %v, want all 4 crashed nodes", pop.restarts)
	}
	drive(eng, inj, 10) // through step 32
	if eng.LossRate() != 0 {
		t.Error("loss window did not close")
	}
	if pop.joins != 3 {
		t.Errorf("joins = %d, want 3", pop.joins)
	}
	drive(eng, inj, 18)
	if len(pop.leaves) != 2 {
		t.Errorf("leaves = %v, want 2", pop.leaves)
	}
	if !inj.Done() {
		t.Error("timeline not fully applied")
	}
	if applied := inj.Applied(); len(applied) != len(sc.Events) {
		t.Errorf("applied %d events, want %d", len(applied), len(sc.Events))
	}
}

// TestInjectorDeterministicVictims pins that the same scenario + seed
// picks the same victims in repeated runs.
func TestInjectorDeterministicVictims(t *testing.T) {
	run := func() string {
		eng := sim.NewEngine(sim.Config{Seed: 3})
		pop := &fakePop{eng: eng, nextID: 100}
		for id := sim.NodeID(1); id <= 30; id++ {
			_ = eng.Add(id, &tickerProc{})
		}
		sc := Scenario{Name: "t", Steps: 20, Events: []Event{
			{Step: 3, Kind: Crash, Frac: 0.2},
			{Step: 9, Kind: Restart, Count: 2},
			{Step: 15, Kind: Crash, Count: 3},
		}}
		inj, err := NewInjector(eng, pop, nil, sc, 99)
		if err != nil {
			t.Fatal(err)
		}
		drive(eng, inj, 20)
		return fmt.Sprintf("%v|%v", inj.Applied(), pop.restarts)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("victim selection not deterministic:\n%s\n%s", a, b)
	}
}

// TestInjectorSurvivalFloor pins that crashes never take the population
// below two live nodes.
func TestInjectorSurvivalFloor(t *testing.T) {
	eng := sim.NewEngine(sim.Config{Seed: 1})
	pop := &fakePop{eng: eng}
	for id := sim.NodeID(1); id <= 5; id++ {
		_ = eng.Add(id, &tickerProc{})
	}
	sc := Scenario{Name: "t", Steps: 10, Events: []Event{
		{Step: 2, Kind: Crash, Count: 100},
	}}
	inj, err := NewInjector(eng, pop, nil, sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	drive(eng, inj, 10)
	if eng.AliveCount() != 2 {
		t.Fatalf("alive = %d, want survival floor 2", eng.AliveCount())
	}
}

func TestInjectorMarksFaults(t *testing.T) {
	eng := sim.NewEngine(sim.Config{Seed: 1})
	pop := &fakePop{eng: eng}
	for id := sim.NodeID(1); id <= 6; id++ {
		_ = eng.Add(id, &tickerProc{})
	}
	w := &fakeTarget{snaps: map[sim.NodeID][]core.MembershipSnapshot{}, owners: map[string]sim.NodeID{}}
	ch := NewChecker(w, CheckerOptions{})
	sc := Scenario{Name: "t", Steps: 10, Events: []Event{
		{Step: 2, Kind: Crash, Count: 1},
		{Step: 2, Kind: SetLoss, Rate: 0.1},
		{Step: 6, Kind: Heal},
	}}
	inj, err := NewInjector(eng, pop, ch, sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	drive(eng, inj, 10)
	// Two fault steps (2 and 6) — the two same-step events coalesce.
	if got := ch.Unrepaired(); len(got) != 2 {
		t.Fatalf("marked faults = %v, want 2 entries", got)
	}
}

// corruptPop is a fakePop that also implements Corruptor, recording every
// op the injector hands it.
type corruptPop struct {
	fakePop
	victims []sim.NodeID
	ops     []core.CorruptionOp
}

func (p *corruptPop) Corrupt(id sim.NodeID, op core.CorruptionOp) bool {
	p.victims = append(p.victims, id)
	p.ops = append(p.ops, op)
	return true
}

func TestInjectorAppliesCorruption(t *testing.T) {
	eng := sim.NewEngine(sim.Config{Seed: 3})
	pop := &corruptPop{fakePop: fakePop{eng: eng}}
	for id := sim.NodeID(1); id <= 10; id++ {
		_ = eng.Add(id, &tickerProc{})
	}
	w := &fakeTarget{snaps: map[sim.NodeID][]core.MembershipSnapshot{}, owners: map[string]sim.NodeID{}}
	ch := NewChecker(w, CheckerOptions{})
	sc := Scenario{Name: "t", Steps: 10, Events: []Event{
		{Step: 2, Kind: Corrupt, Op: core.CorruptDanglingParent, Count: 2},
		{Step: 4, Kind: Corrupt, Op: core.CorruptViewBreak, Count: 1},
		{Step: 6, Kind: Corrupt, Op: core.CorruptSplitBrainRoot},
	}}
	inj, err := NewInjector(eng, pop, ch, sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	drive(eng, inj, 10)
	ch.Check(eng.Now())

	if len(pop.victims) != 4 { // 2 + 1 + default count 1
		t.Fatalf("corrupted %v, want 4 victims", pop.victims)
	}
	for i, op := range pop.ops[:2] {
		if op.Kind != core.CorruptDanglingParent || len(op.Peers) != 2 {
			t.Fatalf("op %d = %+v, want dangling-parent with 2 peers", i, op)
		}
		for _, p := range op.Peers {
			if p < 1<<30 {
				t.Errorf("dangling-parent peer %d is not a phantom id", p)
			}
		}
	}
	if op := pop.ops[2]; op.Kind != core.CorruptViewBreak {
		t.Fatalf("op 2 = %+v, want view-break", op)
	} else {
		for _, p := range op.Peers {
			if p == pop.victims[2] {
				t.Error("view-break peer equals the victim")
			}
			if p < 1 || p > 10 {
				t.Errorf("view-break peer %d not a live node", p)
			}
		}
	}
	for _, a := range inj.Applied() {
		if a.Kind != Corrupt || a.Op == "" || len(a.Nodes) == 0 {
			t.Errorf("applied record %+v missing corruption fields", a)
		}
	}
	// The empty fake world sweeps clean, closing every fault with its kind
	// labels attached.
	reps := ch.Repairs()
	if len(reps) != 3 {
		t.Fatalf("repairs = %+v, want 3", reps)
	}
	if len(reps[0].Kinds) != 1 || reps[0].Kinds[0] != "corrupt-dangling-parent" {
		t.Fatalf("repair kinds = %v, want [corrupt-dangling-parent]", reps[0].Kinds)
	}
}

// TestInjectorRejectsCorruptionWithoutCorruptor pins the construction-time
// error: a corruption timeline needs a surface that can apply it.
func TestInjectorRejectsCorruptionWithoutCorruptor(t *testing.T) {
	eng := sim.NewEngine(sim.Config{Seed: 1})
	pop := &fakePop{eng: eng}
	for id := sim.NodeID(1); id <= 4; id++ {
		_ = eng.Add(id, &tickerProc{})
	}
	sc := Scenario{Name: "t", Steps: 10, Events: []Event{
		{Step: 1, Kind: Corrupt, Op: core.CorruptForgedView},
	}}
	if _, err := NewInjector(eng, pop, nil, sc, 1); err == nil {
		t.Fatal("corruption scenario accepted without a Corruptor")
	}
}
