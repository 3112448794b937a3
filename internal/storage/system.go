package storage

import (
	"fmt"

	"bbwfsim/internal/platform"
	"bbwfsim/internal/workflow"
)

// System assembles the storage side of a platform: the PFS plus either one
// shared burst buffer or one node-local burst buffer per compute node,
// together with the file registry and the operation manager.
type System struct {
	plat     *platform.Platform
	reg      *Registry
	mgr      *Manager
	pfs      Service
	sharedBB Service   // non-nil iff the platform has a shared BB
	nodeBB   []Service // indexed by node index; non-nil iff on-node BBs
}

// NewSystem instantiates storage services from the platform configuration.
// A nil model means the identity operation model.
func NewSystem(p *platform.Platform, model OpModel) *System {
	cfg := p.Config()
	s := &System{
		plat: p,
		reg:  NewRegistry(),
	}
	s.mgr = NewManager(p.Engine(), p.Network(), s.reg, model)
	s.pfs = NewRemote(p, "pfs", KindPFS, platform.BBModeNone, cfg.PFS)
	switch cfg.BBKind {
	case platform.BBShared:
		s.sharedBB = NewRemote(p, "bb", KindSharedBB, cfg.BBMode, cfg.BB)
	case platform.BBOnNode:
		for _, n := range p.Nodes() {
			s.nodeBB = append(s.nodeBB, NewNodeLocal(p, n, cfg.BB))
		}
	default:
		panic(fmt.Sprintf("storage: unknown BB kind %q", cfg.BBKind))
	}
	return s
}

// Platform returns the underlying platform.
func (s *System) Platform() *platform.Platform { return s.plat }

// Registry returns the file-location registry.
func (s *System) Registry() *Registry { return s.reg }

// Manager returns the operation manager.
func (s *System) Manager() *Manager { return s.mgr }

// PFS returns the parallel file system service.
func (s *System) PFS() Service { return s.pfs }

// BBFor returns the burst buffer a task on node targets: the shared BB on a
// shared platform, the node's own BB on an on-node platform.
func (s *System) BBFor(node *platform.Node) Service {
	if s.sharedBB != nil {
		return s.sharedBB
	}
	return s.nodeBB[node.Index()]
}

// AllBBs returns every burst-buffer service.
func (s *System) AllBBs() []Service {
	if s.sharedBB != nil {
		return []Service{s.sharedBB}
	}
	return append([]Service{}, s.nodeBB...)
}

// Services returns every storage service, PFS first.
func (s *System) Services() []Service {
	return append([]Service{s.pfs}, s.AllBBs()...)
}

// PlaceInitial registers f as already resident on svc (reserving its
// space), without simulating any transfer. Used to place workflow inputs on
// long-term storage before execution starts.
func (s *System) PlaceInitial(f *workflow.File, svc Service) error {
	if s.reg.Has(f, svc) {
		return fmt.Errorf("storage: file %q already on %s", f.ID(), svc.Name())
	}
	if err := svc.Reserve(f.Size()); err != nil {
		return err
	}
	s.reg.Add(f, svc)
	return nil
}

// AuditCapacity checks the capacity-accounting invariant on every service:
// the space a service reports as used must equal the bytes of the replicas
// the registry sees there plus the reservations of writes still in flight —
// no negative usage, no leaked space after evictions or cancelled
// operations. The execution engine asserts it at the end of every run; a
// violation always indicates an accounting bug (e.g. a failure-triggered
// replica teardown that dropped a registry entry without releasing space).
func (s *System) AuditCapacity() error {
	for _, svc := range s.Services() {
		used := svc.Used()
		if used < 0 {
			return fmt.Errorf("storage: %s: negative used capacity %v", svc.Name(), used)
		}
		expect := s.reg.BytesOn(svc) + s.mgr.PendingReserved(svc)
		diff := float64(used - expect)
		if diff < 0 {
			diff = -diff
		}
		// Tolerance: the tallies accumulate the same sizes in different
		// interleavings, so only float rounding may separate them.
		tol := 1e-6 * (1 + float64(expect))
		if diff > tol {
			return fmt.Errorf("storage: %s: capacity accounting drift: %v used, but %v resident + %v pending",
				svc.Name(), used, s.reg.BytesOn(svc), s.mgr.PendingReserved(svc))
		}
	}
	return nil
}

// BBStats sums the manager statistics across all burst-buffer services.
func (s *System) BBStats() ServiceStats {
	var total ServiceStats
	for _, bb := range s.AllBBs() {
		st := s.mgr.Stats(bb)
		total.BytesRead += st.BytesRead
		total.BytesWritten += st.BytesWritten
		total.ReadOps += st.ReadOps
		total.WriteOps += st.WriteOps
		total.ReadSeconds += st.ReadSeconds
		total.WriteSeconds += st.WriteSeconds
	}
	return total
}
