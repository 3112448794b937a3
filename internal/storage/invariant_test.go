package storage

import (
	"strings"
	"testing"

	"bbwfsim/internal/platform"
	"bbwfsim/internal/units"
)

// TestAuditCapacityThroughLifecycle drives a burst buffer through the full
// replica lifecycle — writes, a cancelled write, a copy, a cancelled copy,
// racing duplicate relocations, and evictions — auditing the capacity
// invariant (used = resident + pending, never negative) at every step.
func TestAuditCapacityThroughLifecycle(t *testing.T) {
	e, sys, w := coriSystem(t, platform.BBStriped)
	node := sys.Platform().Node(0)
	bb := sys.BBFor(node)
	audit := func(step string) {
		t.Helper()
		if err := sys.AuditCapacity(); err != nil {
			t.Fatalf("after %s: %v", step, err)
		}
	}
	audit("empty system")

	a := w.MustAddFile("a", 100*units.MB)
	b := w.MustAddFile("b", 200*units.MB)
	c := w.MustAddFile("c", 50*units.MB)
	if err := sys.PlaceInitial(c, sys.PFS()); err != nil {
		t.Fatal(err)
	}

	// Write a and b; cancel b mid-flight, which must return its reservation.
	if _, err := sys.Manager().Write(node, a, bb, nil, 0); err != nil {
		t.Fatal(err)
	}
	opB, err := sys.Manager().Write(node, b, bb, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	audit("writes started (reservations pending)")
	e.After(0.05, func() {
		sys.Manager().Cancel(opB)
		if err := sys.AuditCapacity(); err != nil {
			t.Errorf("after cancelled write: %v", err)
		}
	})
	e.Run()
	audit("write completed, cancelled write rolled back")
	if got, want := bb.Used(), a.Size(); got != want {
		t.Fatalf("bb used %v after cancel, want %v", got, want)
	}

	// Copy c to the BB twice concurrently: the duplicate's reservation must
	// be released when the first copy registers the replica.
	if _, err := sys.Manager().Copy(node, c, sys.PFS(), bb, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Manager().Copy(node, c, sys.PFS(), bb, nil, 0); err != nil {
		t.Fatal(err)
	}
	audit("duplicate copies in flight")
	e.Run()
	audit("duplicate copies completed")
	if got, want := bb.Used(), a.Size()+c.Size(); got != want {
		t.Fatalf("bb used %v after duplicate copies, want %v", got, want)
	}

	// A cancelled copy also returns its reservation.
	d := w.MustAddFile("d", 75*units.MB)
	if err := sys.PlaceInitial(d, sys.PFS()); err != nil {
		t.Fatal(err)
	}
	opD, err := sys.Manager().Copy(node, d, sys.PFS(), bb, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	e.After(0.01, func() { sys.Manager().Cancel(opD) })
	e.Run()
	audit("cancelled copy rolled back")

	// Evictions free exactly the evicted bytes.
	for _, f := range sys.Registry().FilesOn(bb) {
		if err := sys.Manager().Evict(f, bb); err != nil {
			t.Fatal(err)
		}
		audit("eviction of " + f.ID())
	}
	if bb.Used() != 0 {
		t.Fatalf("bb used %v after evicting everything, want 0", bb.Used())
	}
}

// TestAuditCapacityDetectsDrift corrupts the accounting on purpose and
// checks the audit actually reports it — a canary for the canary.
func TestAuditCapacityDetectsDrift(t *testing.T) {
	e, sys, w := coriSystem(t, platform.BBStriped)
	node := sys.Platform().Node(0)
	bb := sys.BBFor(node)
	f := w.MustAddFile("f", 100*units.MB)
	if _, err := sys.Manager().Write(node, f, bb, nil, 0); err != nil {
		t.Fatal(err)
	}
	e.Run()
	// Leak: drop the registry entry without releasing the space.
	sys.Registry().Remove(f, bb)
	err := sys.AuditCapacity()
	if err == nil {
		t.Fatal("audit missed a leaked reservation")
	}
	if !strings.Contains(err.Error(), "drift") {
		t.Errorf("audit error %q does not mention drift", err)
	}
	// Negative usage is impossible by construction: over-releasing panics
	// at the service level before the audit could even see it.
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	bb.Release(2 * f.Size())
}
