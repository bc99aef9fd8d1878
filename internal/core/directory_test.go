package core

import "testing"

// TestSharedDirectoryStepSnapshot pins the step-snapshot semantics the
// parallel executor's equivalence contract rests on: mid-step writes are
// invisible until the
// step ends, conflicting claims resolve to the lowest node, and
// same-step add+drop of one contact resolves to dropped regardless of
// call order.
func TestSharedDirectoryStepSnapshot(t *testing.T) {
	d := NewSharedDirectory()

	// Immediate mode (between steps): first claim wins, adds visible.
	if got := d.ClaimOwner("a", 9); got != 9 {
		t.Fatalf("immediate claim = %d", got)
	}
	if got := d.ClaimOwner("a", 4); got != 9 {
		t.Fatalf("second claim = %d, want incumbent 9", got)
	}
	d.AddContact("a", 9)

	// Deferred mode: reads snapshot, writes buffer.
	d.BeginStep(1)
	d.AddContact("a", 5)
	if got := d.Contacts("a"); len(got) != 1 || got[0] != 9 {
		t.Fatalf("mid-step contacts = %v, want snapshot [9]", got)
	}
	// Claims on an ownerless attr are optimistic; lowest wins at commit.
	if got := d.ClaimOwner("b", 7); got != 7 {
		t.Fatalf("optimistic claim = %d", got)
	}
	if got := d.ClaimOwner("b", 3); got != 3 {
		t.Fatalf("optimistic claim = %d", got)
	}
	// Add then drop one contact in the same step: drop must win even
	// though the add came first.
	d.AddContact("a", 6)
	d.DropContact("a", 6)
	// Drop then add, same step: drop still wins (order independence).
	d.DropContact("a", 8)
	d.AddContact("a", 8)
	d.EndStep(1)

	if owner, ok := d.Owner("b"); !ok || owner != 3 {
		t.Errorf("committed owner of b = %d/%v, want 3", owner, ok)
	}
	if got := d.Contacts("a"); len(got) != 2 || got[0] != 5 || got[1] != 9 {
		t.Errorf("committed contacts = %v, want [5 9]", got)
	}

	// ReplaceOwner beats claims; lowest replacer wins.
	d.BeginStep(2)
	d.ReplaceOwner("b", 12)
	d.ReplaceOwner("b", 11)
	d.ClaimOwner("c", 20)
	d.ReplaceOwner("c", 25)
	d.EndStep(2)
	if owner, _ := d.Owner("b"); owner != 11 {
		t.Errorf("owner of b = %d, want lowest replacer 11", owner)
	}
	if owner, _ := d.Owner("c"); owner != 25 {
		t.Errorf("owner of c = %d, want replacer 25 over claimant 20", owner)
	}
}
