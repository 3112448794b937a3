package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
	"unsafe"

	"bbwfsim/internal/platform"
	"bbwfsim/internal/sim"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// mapRegistry is the registry as a map of replica maps, one per file: the
// straightforward structure the value-typed replica lists replace, kept
// here only as the oracle of TestRegistryMatchesMapOracle.
type mapRegistry struct {
	locations map[*workflow.File]map[Service]*platform.Node
	resident  map[Service]units.Bytes
}

func newMapRegistry() *mapRegistry {
	return &mapRegistry{
		locations: map[*workflow.File]map[Service]*platform.Node{},
		resident:  map[Service]units.Bytes{},
	}
}

func (r *mapRegistry) AddFrom(f *workflow.File, svc Service, node *platform.Node) {
	m := r.locations[f]
	if m == nil {
		m = map[Service]*platform.Node{}
		r.locations[f] = m
	}
	if _, held := m[svc]; !held {
		r.resident[svc] += f.Size()
	}
	m[svc] = node
}

func (r *mapRegistry) Remove(f *workflow.File, svc Service) {
	if _, held := r.locations[f][svc]; held {
		r.resident[svc] -= f.Size()
	}
	delete(r.locations[f], svc)
}

func (r *mapRegistry) Has(f *workflow.File, svc Service) bool {
	_, held := r.locations[f][svc]
	return held
}

func (r *mapRegistry) FilesOn(svc Service) []*workflow.File {
	var files []*workflow.File
	for f, m := range r.locations {
		if _, held := m[svc]; held {
			files = append(files, f)
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Index() < files[j].Index() })
	return files
}

func (r *mapRegistry) Locations(f *workflow.File) []Service {
	var svcs []Service
	for svc := range r.locations[f] {
		svcs = append(svcs, svc)
	}
	sort.Slice(svcs, func(i, j int) bool { return svcs[i].Name() < svcs[j].Name() })
	return svcs
}

func (r *mapRegistry) BestVisible(f *workflow.File, node *platform.Node, enforcePrivate bool) (Service, error) {
	var best Service
	bestRank := -1
	for svc, creator := range r.locations[f] {
		if enforcePrivate && svc.Kind() == KindSharedBB && svc.Mode() == platform.BBPrivate {
			if creator != nil && creator != node {
				continue
			}
		}
		rank := 0
		switch {
		case svc.Kind() == KindNodeBB && svc.Local(node):
			rank = 3
		case svc.Kind() == KindNodeBB:
			rank = 2
		case svc.Kind() == KindSharedBB:
			rank = 2
		case svc.Kind() == KindPFS:
			rank = 1
		}
		if rank > bestRank || (rank == bestRank && svc.Name() < best.Name()) {
			bestRank = rank
			best = svc
		}
	}
	if best == nil {
		return nil, fmt.Errorf("storage: file %q has no replica", f.ID())
	}
	return best, nil
}

// TestRegistryMatchesMapOracle drives the registry and the map-of-maps
// oracle with the same seeded random Add, AddFrom, Remove and Manager.Evict
// operations over a PFS, a private shared BB and one node-local BB per
// node, and compares every query after every operation. The files come
// from a workflow and a checkpoint-style side workflow numbered after it,
// whose indices would collide with the first's without the base.
func TestRegistryMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			registryDiff(t, seed, 400)
		})
	}
}

func registryDiff(t *testing.T, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	cfg := platform.Cori(4, platform.BBPrivate)
	p := platform.MustNew(sim.NewEngine(), cfg)
	sys := NewSystem(p, nil)
	nodes := p.Nodes()
	svcs := []Service{sys.PFS(), sys.AllBBs()[0]}
	for _, n := range nodes {
		svcs = append(svcs, NewNodeLocal(p, n, cfg.BB))
	}
	w := workflow.New("wf")
	var files []*workflow.File
	for i := 0; i < 10; i++ {
		files = append(files, w.MustAddFile("f"+strconv.Itoa(i), units.Bytes(1+rng.Intn(64))*units.MB))
	}
	side := workflow.NewFrom("wf+side", len(w.Files()))
	for i := 0; i < 4; i++ {
		files = append(files, side.MustAddFile("ckpt-"+strconv.Itoa(i), units.Bytes(1+rng.Intn(64))*units.MB))
	}
	reg, oracle := sys.Registry(), newMapRegistry()
	if seed%2 == 0 {
		reg.Reserve(len(w.Files())) // as exec does; the side files still extend it
	}
	for op := 0; op < ops; op++ {
		f, svc := files[rng.Intn(len(files))], svcs[rng.Intn(len(svcs))]
		var what string
		switch k := rng.Intn(10); {
		case k < 4:
			// Add and AddFrom of a held replica re-register its creator
			// without reserving again.
			var node *platform.Node
			if k > 0 {
				node = nodes[rng.Intn(len(nodes))]
			}
			if !oracle.Has(f, svc) {
				if err := svc.Reserve(f.Size()); err != nil {
					t.Fatal(err)
				}
			}
			if node == nil {
				what = fmt.Sprintf("Add(%s, %s)", f.ID(), svc.Name())
				reg.Add(f, svc)
			} else {
				what = fmt.Sprintf("AddFrom(%s, %s, %s)", f.ID(), svc.Name(), node.Name())
				reg.AddFrom(f, svc, node)
			}
			oracle.AddFrom(f, svc, node)
		case k < 7:
			what = fmt.Sprintf("Remove(%s, %s)", f.ID(), svc.Name())
			if oracle.Has(f, svc) {
				svc.Release(f.Size())
			}
			reg.Remove(f, svc)
			oracle.Remove(f, svc)
		default:
			what = fmt.Sprintf("Evict(%s, %s)", f.ID(), svc.Name())
			err := sys.Manager().Evict(f, svc)
			if (err == nil) != oracle.Has(f, svc) {
				t.Fatalf("op %d %s: error %v, oracle holds %v", op, what, err, oracle.Has(f, svc))
			}
			oracle.Remove(f, svc)
		}
		compareRegistries(t, fmt.Sprintf("op %d %s", op, what), reg, oracle, files, svcs, nodes)
	}
}

// TestRegistryReserve: once reserved for a workflow's files, the table
// takes every one of them without growing again, a file on one or two
// services allocates no side list, and a side-workflow file numbered past
// them still extends the table.
func TestRegistryReserve(t *testing.T) {
	if got := unsafe.Sizeof(fileSlot{}); got != 32 {
		t.Errorf("a registry slot is %d bytes, want 32", got)
	}
	_, sys, w := coriSystem(t, platform.BBPrivate)
	for i := 0; i < 100; i++ {
		w.MustAddFile("f"+strconv.Itoa(i), units.MB)
	}
	reg := sys.Registry()
	reg.Reserve(len(w.Files()))
	table := cap(reg.files)
	if table != len(w.Files()) {
		t.Fatalf("table reserved for %d files has capacity %d", len(w.Files()), table)
	}
	node := sys.Platform().Nodes()[0]
	for _, f := range w.Files() {
		reg.Add(f, sys.PFS())
		reg.AddFrom(f, sys.AllBBs()[0], node)
	}
	if cap(reg.files) != table || len(reg.files) != len(w.Files()) {
		t.Fatalf("table grew to %d of capacity %d registering %d reserved files (capacity %d)",
			len(reg.files), cap(reg.files), len(w.Files()), table)
	}
	if len(reg.more) != 0 {
		t.Fatalf("%d side lists for files on two services", len(reg.more))
	}
	ckpt := workflow.NewFrom("wf+side", len(w.Files())).MustAddFile("ckpt", units.MB)
	reg.Add(ckpt, sys.PFS())
	if !reg.Has(ckpt, sys.PFS()) || !reg.Has(w.Files()[99], sys.PFS()) {
		t.Fatal("a file past the reservation, or the last reserved one, is missing")
	}
}

// TestRegistryThirdReplica walks one file through three and four
// replicas, two of them in the side list, with private-mode creators, and
// removes them from the front, the middle and the side list; after every
// step each query matches the map oracle, and the remaining replicas keep
// their order.
func TestRegistryThirdReplica(t *testing.T) {
	cfg := platform.Cori(3, platform.BBPrivate)
	p := platform.MustNew(sim.NewEngine(), cfg)
	sys := NewSystem(p, nil)
	nodes := p.Nodes()
	pfs, bb := sys.PFS(), sys.AllBBs()[0]
	local := []Service{NewNodeLocal(p, nodes[1], cfg.BB), NewNodeLocal(p, nodes[2], cfg.BB)}
	svcs := []Service{pfs, bb, local[0], local[1]}
	w := workflow.New("wf")
	f := w.MustAddFile("f", units.MB)
	g := w.MustAddFile("g", units.MB)
	files := []*workflow.File{f, g}
	reg, oracle := sys.Registry(), newMapRegistry()
	add := func(svc Service, node *platform.Node) {
		if err := svc.Reserve(f.Size()); err != nil {
			t.Fatal(err)
		}
		reg.AddFrom(f, svc, node)
		oracle.AddFrom(f, svc, node)
	}
	remove := func(svc Service) {
		svc.Release(f.Size())
		reg.Remove(f, svc)
		oracle.Remove(f, svc)
	}
	order := func(want ...Service) {
		t.Helper()
		var got []Service
		inline, rest := reg.list(reg.slot(f))
		for _, rep := range append(append([]replica{}, inline...), rest...) {
			got = append(got, reg.svcs[rep.svc-1])
		}
		if !slices.Equal(got, want) {
			t.Fatalf("replica order %v, want %v", got, want)
		}
		compareRegistries(t, fmt.Sprintf("after %v", want), reg, oracle, files, svcs, nodes)
	}
	add(bb, nodes[0])
	add(pfs, nil)
	add(local[0], nodes[1])
	order(bb, pfs, local[0])
	add(local[1], nodes[2])
	reg.AddFrom(f, local[1], nodes[0]) // a re-registration in the side list
	oracle.AddFrom(f, local[1], nodes[0])
	order(bb, pfs, local[0], local[1])
	if reg.Creator(f, local[1]) != nodes[0] {
		t.Fatalf("side-list creator %v, want %v", reg.Creator(f, local[1]), nodes[0])
	}
	remove(bb)
	order(pfs, local[0], local[1])
	remove(local[1])
	order(pfs, local[0])
	add(bb, nodes[2])
	order(pfs, local[0], bb)
	remove(local[0])
	order(pfs, bb)
	remove(pfs)
	remove(bb)
	order()
	if reg.Located(f) {
		t.Fatal("a file with every replica removed is still located")
	}
}

// TestRegistryRejectsSharedIndex: two files with one index must not share
// a registry slot silently.
func TestRegistryRejectsSharedIndex(t *testing.T) {
	_, sys, w := coriSystem(t, platform.BBPrivate)
	f := w.MustAddFile("f", units.MB)
	g := workflow.New("other").MustAddFile("g", units.MB)
	sys.Registry().Add(f, sys.PFS())
	defer func() {
		if recover() == nil {
			t.Fatal("Has of a file sharing an index with a registered one did not panic")
		}
	}()
	sys.Registry().Has(g, sys.PFS())
}

func compareRegistries(t *testing.T, at string, reg *Registry, oracle *mapRegistry, files []*workflow.File, svcs []Service, nodes []*platform.Node) {
	t.Helper()
	for _, f := range files {
		for _, svc := range svcs {
			if got, want := reg.Has(f, svc), oracle.Has(f, svc); got != want {
				t.Fatalf("%s: Has(%s, %s) = %v, oracle %v", at, f.ID(), svc.Name(), got, want)
			}
			if got, want := reg.Creator(f, svc), oracle.locations[f][svc]; got != want {
				t.Fatalf("%s: Creator(%s, %s) = %v, oracle %v", at, f.ID(), svc.Name(), got, want)
			}
		}
		if got, want := reg.Located(f), len(oracle.locations[f]) > 0; got != want {
			t.Fatalf("%s: Located(%s) = %v, oracle %v", at, f.ID(), got, want)
		}
		if got, want := reg.Locations(f), oracle.Locations(f); !slices.Equal(got, want) {
			t.Fatalf("%s: Locations(%s) = %v, oracle %v", at, f.ID(), got, want)
		}
		for _, node := range nodes {
			for _, enforce := range []bool{false, true} {
				got, gerr := reg.BestVisible(f, node, enforce)
				want, werr := oracle.BestVisible(f, node, enforce)
				if got != want || (gerr == nil) != (werr == nil) {
					t.Fatalf("%s: BestVisible(%s, %s, %v) = %v, %v; oracle %v, %v", at, f.ID(), node.Name(), enforce, got, gerr, want, werr)
				}
			}
		}
	}
	for _, svc := range svcs {
		if got, want := reg.FilesOn(svc), oracle.FilesOn(svc); !slices.Equal(got, want) {
			t.Fatalf("%s: FilesOn(%s) = %v, oracle %v", at, svc.Name(), got, want)
		}
		if got, want := reg.BytesOn(svc), oracle.resident[svc]; got != want {
			t.Fatalf("%s: BytesOn(%s) = %v, oracle %v", at, svc.Name(), got, want)
		}
		if got := svc.Used(); got != reg.BytesOn(svc) {
			t.Fatalf("%s: %s has %v reserved, registry holds %v", at, svc.Name(), got, reg.BytesOn(svc))
		}
	}
}
