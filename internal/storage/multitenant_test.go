package storage

import (
	"testing"

	"bbwfsim/internal/platform"
	"bbwfsim/internal/sim"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// TestConcurrentTenantsShareOneReplica is the multi-tenant regression for
// the registry's single-replica-per-service model: two compute nodes —
// two tenants of one shared burst buffer — stage and write the same files
// concurrently. Each racing pair must land exactly one replica's worth of
// space (the duplicate's reservation is returned on completion), the
// capacity audit must hold while both reservations are in flight, and the
// replica's creator must be the last completer — the documented
// last-writer-wins semantic the private-mode visibility rule reads.
func TestConcurrentTenantsShareOneReplica(t *testing.T) {
	e := sim.NewEngine()
	cfg := platform.Cori(2, platform.BBPrivate)
	cfg.PFS.StreamCap = 0
	cfg.BB.StreamCap = 0
	p := platform.MustNew(e, cfg)
	sys := NewSystem(p, nil)
	w := workflow.New("wf")
	node0, node1 := p.Node(0), p.Node(1)
	bb := sys.BBFor(node0)
	audit := func(step string) {
		t.Helper()
		if err := sys.AuditCapacity(); err != nil {
			t.Fatalf("after %s: %v", step, err)
		}
	}

	// Two tenants stage the same shared input PFS→BB at the same instant.
	f := w.MustAddFile("shared-input", 100*units.MB)
	if err := sys.PlaceInitial(f, sys.PFS()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Manager().Copy(node0, f, sys.PFS(), bb, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Manager().Copy(node1, f, sys.PFS(), bb, nil, 0); err != nil {
		t.Fatal(err)
	}
	// Both reservations are pending: used = 2 sizes, resident = 0.
	if got, want := bb.Used(), 2*f.Size(); got != want {
		t.Fatalf("bb used %v with duplicate stages in flight, want %v", got, want)
	}
	audit("duplicate stages in flight")
	e.Run()
	audit("duplicate stages completed")
	if got, want := bb.Used(), f.Size(); got != want {
		t.Fatalf("bb used %v after duplicate stages, want one replica %v", got, want)
	}
	if got, want := sys.Registry().BytesOn(bb), f.Size(); got != want {
		t.Fatalf("registry sees %v on the BB, want %v", got, want)
	}

	// Creator is the last completer (both copies start together, so the
	// second submission completes second): under the private-mode
	// visibility rule the surviving replica belongs to that tenant, and
	// the other tenant falls back to the PFS.
	if got := sys.Registry().Creator(f, bb); got != node1 {
		t.Errorf("replica creator = %v, want the last completer %v", got, node1)
	}
	if svc, err := sys.Registry().BestVisible(f, node1, true); err != nil || svc != bb {
		t.Errorf("creator tenant reads from %v (%v), want the BB", svc, err)
	}
	if svc, err := sys.Registry().BestVisible(f, node0, true); err != nil || svc != sys.PFS() {
		t.Errorf("other tenant reads from %v (%v), want the PFS fallback", svc, err)
	}

	// The same race on the write path: both tenants write one output.
	g := w.MustAddFile("shared-output", 64*units.MB)
	if _, err := sys.Manager().Write(node0, g, bb, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Manager().Write(node1, g, bb, nil, 0); err != nil {
		t.Fatal(err)
	}
	audit("duplicate writes in flight")
	e.Run()
	audit("duplicate writes completed")
	if got, want := bb.Used(), f.Size()+g.Size(); got != want {
		t.Fatalf("bb used %v after duplicate writes, want %v", got, want)
	}

	// One eviction per file frees the space completely.
	for _, file := range sys.Registry().FilesOn(bb) {
		if err := sys.Manager().Evict(file, bb); err != nil {
			t.Fatal(err)
		}
		audit("eviction of " + file.ID())
	}
	if bb.Used() != 0 {
		t.Fatalf("bb used %v after evicting everything, want 0", bb.Used())
	}
}
