// Package storage models the storage subsystems of an HPC platform: the
// parallel file system (PFS), remote shared burst buffers (Cori-style), and
// node-local burst buffers (Summit-style).
//
// Each service exposes the flow-resource paths that read and write
// operations traverse, per-operation latencies, a per-stream rate cap, and
// capacity accounting. The Manager (manager.go) starts operations on these
// paths and the Registry (registry.go) tracks which services hold which
// files.
package storage

import (
	"fmt"

	"bbwfsim/internal/flow"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/units"
)

// Kind identifies the class of a storage service.
type Kind string

const (
	// KindPFS is the global parallel file system.
	KindPFS Kind = "pfs"
	// KindSharedBB is a remote shared burst buffer on dedicated nodes.
	KindSharedBB Kind = "shared-bb"
	// KindNodeBB is a node-local burst buffer.
	KindNodeBB Kind = "node-bb"
)

// Service is a storage subsystem operations can target.
type Service interface {
	// Name identifies the service, e.g. "pfs", "bb", "bb@cori-node002".
	Name() string
	// Kind reports the service class.
	Kind() Kind
	// Mode reports the allocation mode (shared BBs only; empty otherwise).
	Mode() platform.BBMode
	// ReadPath returns the resources a read from this service into node
	// traverses.
	ReadPath(node *platform.Node) []*flow.Resource
	// WritePath returns the resources a write from node to this service
	// traverses.
	WritePath(node *platform.Node) []*flow.Resource
	// ReadLatency and WriteLatency are the fixed per-operation costs.
	ReadLatency() float64
	WriteLatency() float64
	// StreamCap bounds a single stream's rate; 0 means unbounded.
	StreamCap(node *platform.Node) units.Bandwidth
	// Capacity is the total capacity (0 = unlimited); Used is currently
	// reserved space; Peak is the occupancy high-water mark over the run
	// (the storage_peak_bytes gauge of the observability layer).
	Capacity() units.Bytes
	Used() units.Bytes
	Peak() units.Bytes
	// Reserve claims space for a file about to be written; it fails when
	// the service is full. Release returns space (eviction).
	Reserve(size units.Bytes) error
	Release(size units.Bytes)
	// Local reports whether the service is local to the given node (no
	// network hop on access).
	Local(node *platform.Node) bool
	// state returns the service's per-run tallies. Every run builds its
	// own services, so the manager and registry keep their per-service
	// accounting here instead of in maps keyed by service.
	state() *capacityTracker
}

// capacityTracker implements the Reserve/Release half of Service and holds
// the per-run state the Manager and Registry keep for the service.
type capacityTracker struct {
	name     string
	capacity units.Bytes
	used     units.Bytes
	peak     units.Bytes
	// inFlight counts the manager's operations targeting the service;
	// pending is the space reserved by writes and copies still in flight:
	// space that used already counts but the registry does not yet see.
	inFlight int
	pending  units.Bytes
	stats    ServiceStats
	// resident tallies the bytes of all registered replicas, maintained
	// incrementally so the capacity audit (System.AuditCapacity) is cheap.
	resident units.Bytes
	// reg is the registry that has given the service its ordinal ord (its
	// position in Registry.svcs plus one); nil until a replica is
	// registered on the service.
	reg *Registry
	ord int32
	// paths memoizes the per-node resource paths, indexed by nodeSlot. A
	// path never changes after construction, and building it fresh was one
	// of the hottest allocation sites of a run (every read and write needs
	// one). Callers treat returned paths as immutable; one slice per node
	// also lets the flow network solve its operations as one class.
	paths [][]*flow.Resource
}

func (c *capacityTracker) state() *capacityTracker { return c }

func (c *capacityTracker) Capacity() units.Bytes { return c.capacity }
func (c *capacityTracker) Used() units.Bytes     { return c.used }
func (c *capacityTracker) Peak() units.Bytes     { return c.peak }

func (c *capacityTracker) Reserve(size units.Bytes) error {
	if size < 0 {
		return fmt.Errorf("storage: %s: reserve negative size %v", c.name, size)
	}
	if c.capacity > 0 && c.used+size > c.capacity {
		return &FullError{Service: c.name, Capacity: c.capacity, Used: c.used, Requested: size}
	}
	c.used += size
	if c.used > c.peak {
		c.peak = c.used
	}
	return nil
}

func (c *capacityTracker) Release(size units.Bytes) {
	if size < 0 || c.used-size < -1e-6 {
		panic(fmt.Sprintf("storage: %s: release %v with %v used", c.name, size, c.used))
	}
	c.used -= size
	if c.used < 0 {
		c.used = 0
	}
}

// FullError reports a failed reservation on a capacity-limited service.
type FullError struct {
	Service   string
	Capacity  units.Bytes
	Used      units.Bytes
	Requested units.Bytes
}

func (e *FullError) Error() string {
	return fmt.Sprintf("storage: %s full: %v used of %v, cannot fit %v",
		e.Service, e.Used, e.Capacity, e.Requested)
}

// nodeSlot indexes the per-node caches of this package: the node's index
// plus one, with slot 0 for the nil node.
func nodeSlot(node *platform.Node) int {
	if node == nil {
		return 0
	}
	return node.Index() + 1
}

// reach returns s extended with zero values so that index i exists.
func reach[T any](s []T, i int) []T {
	var zero T
	for len(s) <= i {
		s = append(s, zero)
	}
	return s
}

// pathSlot returns node's entry of the path cache, growing it to reach it.
func (c *capacityTracker) pathSlot(node *platform.Node) *[]*flow.Resource {
	c.paths = reach(c.paths, nodeSlot(node))
	return &c.paths[nodeSlot(node)]
}

// remoteService is a storage system behind the interconnect, shared by all
// compute nodes: the PFS or a Cori-style shared burst buffer. All traffic
// funnels through one network resource and one disk resource.
type remoteService struct {
	capacityTracker
	kind      Kind
	mode      platform.BBMode
	netRes    *flow.Resource // nil when NetworkBW is 0
	diskRes   *flow.Resource
	readLat   float64
	writeLat  float64
	streamCap units.Bandwidth
}

// NewRemote builds a remote shared service (PFS or shared BB) from its
// configuration, creating its network and disk resources on the platform's
// flow network.
func NewRemote(p *platform.Platform, name string, kind Kind, mode platform.BBMode, cfg platform.StorageConfig) Service {
	s := &remoteService{
		capacityTracker: capacityTracker{name: name, capacity: cfg.Capacity},
		kind:            kind,
		mode:            mode,
		diskRes:         p.Network().NewResource(name+"-disk", float64(cfg.DiskBW)),
		readLat:         cfg.ReadLatency,
		writeLat:        cfg.WriteLatency,
		streamCap:       cfg.StreamCap,
	}
	if cfg.NetworkBW > 0 {
		s.netRes = p.Network().NewResource(name+"-net", float64(cfg.NetworkBW))
	}
	return s
}

func (s *remoteService) Name() string          { return s.name }
func (s *remoteService) Kind() Kind            { return s.kind }
func (s *remoteService) Mode() platform.BBMode { return s.mode }
func (s *remoteService) ReadLatency() float64  { return s.readLat }
func (s *remoteService) WriteLatency() float64 { return s.writeLat }

func (s *remoteService) StreamCap(*platform.Node) units.Bandwidth { return s.streamCap }
func (s *remoteService) Local(*platform.Node) bool                { return false }

func (s *remoteService) path(node *platform.Node) []*flow.Resource {
	p := s.pathSlot(node)
	if *p == nil {
		res := make([]*flow.Resource, 0, 3)
		if node != nil {
			res = append(res, node.Link())
		}
		if s.netRes != nil {
			res = append(res, s.netRes)
		}
		*p = append(res, s.diskRes)
	}
	return *p
}

func (s *remoteService) ReadPath(node *platform.Node) []*flow.Resource  { return s.path(node) }
func (s *remoteService) WritePath(node *platform.Node) []*flow.Resource { return s.path(node) }

// localService is a node-local burst buffer: an NVMe device inside one
// compute node. Access from the owning node touches only the local disk;
// access from another node crosses both nodes' links.
type localService struct {
	capacityTracker
	owner     *platform.Node
	diskRes   *flow.Resource
	readLat   float64
	writeLat  float64
	streamCap units.Bandwidth
	remoteCap units.Bandwidth // caps remote access (NVMe-over-fabric path)
}

// NewNodeLocal builds the node-local burst buffer of one compute node.
func NewNodeLocal(p *platform.Platform, owner *platform.Node, cfg platform.StorageConfig) Service {
	name := "bb@" + owner.Name()
	return &localService{
		capacityTracker: capacityTracker{name: name, capacity: cfg.Capacity},
		owner:           owner,
		diskRes:         p.Network().NewResource(name+"-disk", float64(cfg.DiskBW)),
		readLat:         cfg.ReadLatency,
		writeLat:        cfg.WriteLatency,
		streamCap:       cfg.StreamCap,
		remoteCap:       cfg.NetworkBW,
	}
}

func (s *localService) Name() string          { return s.name }
func (s *localService) Kind() Kind            { return KindNodeBB }
func (s *localService) Mode() platform.BBMode { return platform.BBModeNone }
func (s *localService) ReadLatency() float64  { return s.readLat }
func (s *localService) WriteLatency() float64 { return s.writeLat }

func (s *localService) Local(node *platform.Node) bool { return node == s.owner }

func (s *localService) StreamCap(node *platform.Node) units.Bandwidth {
	if node == s.owner || node == nil {
		return s.streamCap
	}
	// Remote access is additionally bounded by the fabric path.
	//bbvet:allow float-compare -- zero is the "uncapped" sentinel bandwidth, never a computed rate
	if s.remoteCap > 0 && (s.streamCap == 0 || s.remoteCap < s.streamCap) {
		return s.remoteCap
	}
	return s.streamCap
}

func (s *localService) path(node *platform.Node) []*flow.Resource {
	p := s.pathSlot(node)
	if *p == nil {
		if node == nil || node == s.owner {
			*p = []*flow.Resource{s.diskRes}
		} else {
			*p = []*flow.Resource{node.Link(), s.owner.Link(), s.diskRes}
		}
	}
	return *p
}

func (s *localService) ReadPath(node *platform.Node) []*flow.Resource  { return s.path(node) }
func (s *localService) WritePath(node *platform.Node) []*flow.Resource { return s.path(node) }
