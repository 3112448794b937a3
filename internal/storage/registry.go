package storage

import (
	"fmt"
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
	// more holds the replicas of a file past its slot's inline two, at
	// fileSlot.more-1. A file rarely lives on more than two services.
	more [][]replica
	// svcs are the services replicas have been registered on, by ordinal
	// minus one (capacityTracker.ord).
	svcs []Service
	// nodes are the creators replicas have been registered with, by
	// nodeSlot; nodes[0] stays nil, the creator of pre-existing replicas.
	nodes []*platform.Node
}

// fileSlot is one file's entry in the registry table: 32 bytes, with no
// per-file allocation for a file on at most two services.
type fileSlot struct {
	f *workflow.File // owner; nil while the slot is unused
	// reps are the file's first two replicas, filled in order: an empty
	// one (svc 0) is followed only by empty ones, and while either is
	// empty the file's side list is empty too.
	reps [2]replica
	more int32 // 1 + the index of the file's list in Registry.more; 0 for none
}

// replica is one copy of a file on one service, as ordinals into the
// registry's tables, so a replica holds no pointer.
type replica struct {
	svc int32 // service ordinal; 0 marks an empty inline replica
	// node is the nodeSlot of the compute node that wrote the replica; 0
	// means the replica pre-exists (initial placement) and is visible to
	// everyone.
	node int32
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Reserve sizes the table for files indexed below n, so a run that
// registers its workflow's files grows it once. Files past n (the side
// workflow's) still extend it one at a time.
func (r *Registry) Reserve(n int) {
	if n > cap(r.files) {
		files := make([]fileSlot, len(r.files), n)
		copy(files, r.files)
		r.files = files
	}
}

// ordinal returns svc's ordinal in r, or 0 when no replica has ever been
// registered on svc.
func (r *Registry) ordinal(svc Service) int32 {
	if st := svc.state(); st.reg == r {
		return st.ord
	}
	return 0
}

// enroll returns svc's ordinal in r, giving it the next one on first use.
// Every run builds its own services, so a service serves one registry.
func (r *Registry) enroll(svc Service) int32 {
	st := svc.state()
	if st.reg != r {
		if st.reg != nil {
			panic(fmt.Sprintf("storage: service %s is used by two registries", svc.Name()))
		}
		r.svcs = append(r.svcs, svc)
		st.reg, st.ord = r, int32(len(r.svcs))
	}
	return st.ord
}

// creatorSlot returns node's index in r.nodes, recording it on first use.
// It panics when another node already holds that index.
func (r *Registry) creatorSlot(node *platform.Node) int32 {
	i := nodeSlot(node)
	r.nodes = reach(r.nodes, i)
	if n := r.nodes[i]; n != node {
		if n != nil {
			panic(fmt.Sprintf("storage: nodes %s and %s share registry index %d", n.Name(), node.Name(), i))
		}
		r.nodes[i] = node
	}
	return int32(i)
}

// slot returns f's slot, nil when the table does not reach it. It panics
// when the slot belongs to another file: two files sharing an index would
// otherwise share replicas silently.
func (r *Registry) slot(f *workflow.File) *fileSlot {
	if i := f.Index(); i < len(r.files) {
		s := &r.files[i]
		if s.f != f && s.f != nil {
			panic(fmt.Sprintf("storage: files %q and %q share registry index %d", s.f.ID(), f.ID(), i))
		}
		return s
	}
	return nil
}

// list returns the replicas of slot s: its inline ones, then the rest.
func (r *Registry) list(s *fileSlot) (inline, rest []replica) {
	if s == nil {
		return nil, nil
	}
	n := 0
	for n < len(s.reps) && s.reps[n].svc != 0 {
		n++
	}
	if s.more > 0 {
		rest = r.more[s.more-1]
	}
	return s.reps[:n], rest
}

// find returns the position of the replica on the service with ordinal
// svc in s's list (inline replicas first), or -1.
func (r *Registry) find(s *fileSlot, svc int32) int {
	if svc == 0 {
		return -1
	}
	inline, rest := r.list(s)
	for i := range inline {
		if inline[i].svc == svc {
			return i
		}
	}
	for i := range rest {
		if rest[i].svc == svc {
			return len(s.reps) + i
		}
	}
	return -1
}

// at returns the replica at position i of s's list.
func (r *Registry) at(s *fileSlot, i int) *replica {
	if i < len(s.reps) {
		return &s.reps[i]
	}
	return &r.more[s.more-1][i-len(s.reps)]
}

// Add records that svc holds a replica of f with no particular creator
// (visible from every node).
func (r *Registry) Add(f *workflow.File, svc Service) {
	r.AddFrom(f, svc, nil)
}

// AddFrom records that svc holds a replica of f created by node.
func (r *Registry) AddFrom(f *workflow.File, svc Service, node *platform.Node) {
	r.files = reach(r.files, f.Index())
	s := r.slot(f)
	o, n := r.enroll(svc), r.creatorSlot(node)
	if i := r.find(s, o); i >= 0 {
		r.at(s, i).node = n
		return
	}
	s.f = f
	svc.state().resident += f.Size()
	rep := replica{svc: o, node: n}
	switch {
	case s.reps[0].svc == 0:
		s.reps[0] = rep
	case s.reps[1].svc == 0:
		s.reps[1] = rep
	default:
		if s.more == 0 {
			r.more = append(r.more, nil)
			s.more = int32(len(r.more))
		}
		r.more[s.more-1] = append(r.more[s.more-1], rep)
	}
}

// Remove forgets the replica of f on svc, keeping the order of the rest.
// Removing an absent replica is a no-op.
func (r *Registry) Remove(f *workflow.File, svc Service) {
	s := r.slot(f)
	i := r.find(s, r.ordinal(svc))
	if i < 0 {
		return
	}
	svc.state().resident -= f.Size()
	_, rest := r.list(s)
	if i < len(s.reps) {
		copy(s.reps[i:], s.reps[i+1:])
		last := &s.reps[len(s.reps)-1]
		*last = replica{}
		if len(rest) == 0 {
			return
		}
		*last, i = rest[0], len(s.reps)
	}
	j := i - len(s.reps)
	copy(rest[j:], rest[j+1:])
	r.more[s.more-1] = rest[:len(rest)-1]
}

// BytesOn returns the total size of the replicas svc currently holds.
func (r *Registry) BytesOn(svc Service) units.Bytes { return svc.state().resident }

// FilesOn returns the files with a replica on svc in File.Index() order.
func (r *Registry) FilesOn(svc Service) []*workflow.File {
	o := r.ordinal(svc)
	if o == 0 {
		return nil
	}
	var files []*workflow.File
	for i := range r.files {
		if s := &r.files[i]; r.find(s, o) >= 0 {
			files = append(files, s.f)
		}
	}
	return files
}

// Has reports whether svc holds a replica of f.
func (r *Registry) Has(f *workflow.File, svc Service) bool {
	return r.find(r.slot(f), r.ordinal(svc)) >= 0
}

// Creator returns the node that created the replica of f on svc, or nil
// when the replica pre-exists or is absent.
func (r *Registry) Creator(f *workflow.File, svc Service) *platform.Node {
	s := r.slot(f)
	if i := r.find(s, r.ordinal(svc)); i >= 0 {
		return r.nodes[r.at(s, i).node]
	}
	return nil
}

// Locations returns the services holding f, sorted by name for determinism.
func (r *Registry) Locations(f *workflow.File) []Service {
	var svcs []Service
	inline, rest := r.list(r.slot(f))
	for _, reps := range [2][]replica{inline, rest} {
		for _, rep := range reps {
			svcs = append(svcs, r.svcs[rep.svc-1])
		}
	}
	sort.Slice(svcs, func(i, j int) bool { return svcs[i].Name() < svcs[j].Name() })
	return svcs
}

// Located reports whether any service holds f.
func (r *Registry) Located(f *workflow.File) bool {
	s := r.slot(f)
	return s != nil && s.reps[0].svc != 0
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
	inline, rest := r.list(r.slot(f))
	for _, reps := range [2][]replica{inline, rest} {
		for _, rep := range reps {
			svc := r.svcs[rep.svc-1]
			if enforcePrivate && svc.Kind() == KindSharedBB && svc.Mode() == platform.BBPrivate {
				if c := rep.node; c != 0 && c != int32(nodeSlot(node)) {
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
	}
	if best == nil {
		return nil, fmt.Errorf("storage: file %q has no replica", f.ID())
	}
	return best, nil
}
