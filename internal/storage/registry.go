package storage

import (
	"fmt"
	"slices"
	"sort"

	"bbwfsim/internal/platform"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// Registry tracks where file replicas live. A file may be resident on any
// number of services at once (e.g. a workflow input on the PFS and a staged
// copy on the burst buffer). Each replica remembers which compute node
// created it, which is what the private DataWarp mode's visibility rule
// ("access to files in the BB are limited to the compute node that created
// them", paper Section III-D) is enforced against.
//
// Files are looked up by File.Index(), so every file a run registers must
// have an index of its own: files outside the workflow's DAG (checkpoint
// snapshots, background traffic) are numbered after the workflow's own
// (workflow.NewFrom).
type Registry struct {
	// files is indexed by File.Index(); a slot belongs to the first file
	// registered under its index.
	files []fileSlot
	// slab is the unused tail of the chunk that replica lists are carved
	// from, two entries per file.
	slab []replica
}

// fileSlot is one file's entry in the registry table.
type fileSlot struct {
	f    *workflow.File // owner; nil while the slot is unused
	reps []replica
}

// replicaChunk is the number of replicas one slab chunk holds.
const replicaChunk = 512

// replica is one copy of a file on one service. A file's replicas are a
// short value-typed list (a file lives on a handful of services at most),
// so registering one allocates no per-file map and no per-replica object:
// replicas are registered on every write completion.
type replica struct {
	svc Service
	// creator is the compute node that wrote the replica; nil means the
	// replica pre-exists (initial placement) and is visible to everyone.
	creator *platform.Node
}

// find returns the index of svc's replica in reps, or -1.
func find(reps []replica, svc Service) int {
	for i := range reps {
		if reps[i].svc == svc {
			return i
		}
	}
	return -1
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Reserve makes room in the table for files indexed below n, so a run
// that registers its workflow's files grows the table once. Files past n
// (the side workflow's) still extend it one at a time.
func (r *Registry) Reserve(n int) {
	if n > len(r.files) {
		r.files = slices.Grow(r.files, n-len(r.files))
	}
}

// replicas returns the replica list of f, nil when f has none. It panics
// when f's slot belongs to another file: two files sharing an index would
// otherwise share replicas silently.
func (r *Registry) replicas(f *workflow.File) []replica {
	if i := f.Index(); i < len(r.files) {
		s := &r.files[i]
		if s.f != f && s.f != nil {
			panic(fmt.Sprintf("storage: files %q and %q share registry index %d", s.f.ID(), f.ID(), i))
		}
		return s.reps
	}
	return nil
}

// Add records that svc holds a replica of f with no particular creator
// (visible from every node).
func (r *Registry) Add(f *workflow.File, svc Service) {
	r.AddFrom(f, svc, nil)
}

// AddFrom records that svc holds a replica of f created by node.
func (r *Registry) AddFrom(f *workflow.File, svc Service, node *platform.Node) {
	r.files = reach(r.files, f.Index())
	slot := &r.files[f.Index()]
	if i := find(r.replicas(f), svc); i >= 0 {
		slot.reps[i].creator = node
		return
	}
	if slot.f == nil {
		if len(r.slab) < 2 {
			r.slab = make([]replica, replicaChunk)
		}
		slot.f, slot.reps, r.slab = f, r.slab[:0:2], r.slab[2:]
	}
	svc.state().resident += f.Size()
	slot.reps = append(slot.reps, replica{svc: svc, creator: node})
}

// Remove forgets the replica of f on svc. Removing an absent replica is a
// no-op.
func (r *Registry) Remove(f *workflow.File, svc Service) {
	reps := r.replicas(f)
	i := find(reps, svc)
	if i < 0 {
		return
	}
	svc.state().resident -= f.Size()
	last := len(reps) - 1
	copy(reps[i:], reps[i+1:])
	reps[last] = replica{}
	r.files[f.Index()].reps = reps[:last]
}

// BytesOn returns the total size of the replicas svc currently holds.
func (r *Registry) BytesOn(svc Service) units.Bytes { return svc.state().resident }

// FilesOn returns the files with a replica on svc in File.Index() order.
func (r *Registry) FilesOn(svc Service) []*workflow.File {
	var files []*workflow.File
	for _, slot := range r.files {
		if find(slot.reps, svc) >= 0 {
			files = append(files, slot.f)
		}
	}
	return files
}

// Has reports whether svc holds a replica of f.
func (r *Registry) Has(f *workflow.File, svc Service) bool {
	return find(r.replicas(f), svc) >= 0
}

// Creator returns the node that created the replica of f on svc, or nil
// when the replica pre-exists or is absent.
func (r *Registry) Creator(f *workflow.File, svc Service) *platform.Node {
	reps := r.replicas(f)
	if i := find(reps, svc); i >= 0 {
		return reps[i].creator
	}
	return nil
}

// Locations returns the services holding f, sorted by name for determinism.
func (r *Registry) Locations(f *workflow.File) []Service {
	var svcs []Service
	for _, rep := range r.replicas(f) {
		svcs = append(svcs, rep.svc)
	}
	sort.Slice(svcs, func(i, j int) bool { return svcs[i].Name() < svcs[j].Name() })
	return svcs
}

// Located reports whether any service holds f.
func (r *Registry) Located(f *workflow.File) bool {
	return len(r.replicas(f)) > 0
}

// BestVisible picks the replica of f a task on node should read: a
// node-local BB on that node beats any other burst buffer, which beats the
// PFS. Ties are broken by service name. It returns an error when no
// replica exists. When enforcePrivate is set, the private DataWarp
// visibility rule applies: replicas on a private-mode shared burst buffer
// that were created by a *different* compute node are invisible, and the
// reader falls back to another replica (typically the PFS).
func (r *Registry) BestVisible(f *workflow.File, node *platform.Node, enforcePrivate bool) (Service, error) {
	var best Service
	bestRank := -1
	// This runs once per read operation, so it must not allocate: instead
	// of ranging over name-sorted Locations, reduce over the replicas under
	// the total order (rank desc, name asc) — the maximum of a total order
	// is the same service regardless of the replicas' order.
	for _, rep := range r.replicas(f) {
		svc := rep.svc
		if enforcePrivate && svc.Kind() == KindSharedBB && svc.Mode() == platform.BBPrivate {
			if c := rep.creator; c != nil && c != node {
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
