// Package platform describes the simulated execution platform: compute
// nodes (cores, per-core speed, RAM, injection link) and the calibration
// parameters of the storage subsystems (PFS and burst buffer), following
// Table I of the paper.
//
// A Config is plain data (loadable from JSON); a Platform is a Config
// instantiated on a simulation engine, with flow resources created for each
// node. Storage services (internal/storage) build their own resources from
// the StorageConfig halves of the Config.
package platform

import (
	"fmt"
	"math"

	"bbwfsim/internal/flow"
	"bbwfsim/internal/sim"
	"bbwfsim/internal/units"
)

// BBKind distinguishes the two burst-buffer architectures the paper studies.
type BBKind string

const (
	// BBShared models Cori-style remote shared burst buffers: dedicated BB
	// nodes reached over the interconnect, allocatable by any compute node.
	BBShared BBKind = "shared"
	// BBOnNode models Summit-style node-local burst buffers: an NVMe device
	// in every compute node, reachable without a network hop.
	BBOnNode BBKind = "on-node"
)

// BBMode is the Cray DataWarp allocation mode on a shared burst buffer.
type BBMode string

const (
	// BBPrivate gives each compute node its own namespace on the BB.
	BBPrivate BBMode = "private"
	// BBStriped stripes files across BB nodes; any compute node can access
	// any file. Optimized for N:1 patterns, poor for the 1:N pattern the
	// studied workflows exhibit.
	BBStriped BBMode = "striped"
	// BBModeNone applies to on-node burst buffers, which have no mode.
	BBModeNone BBMode = ""
)

// StorageConfig calibrates one storage subsystem (one column pair of
// Table I).
type StorageConfig struct {
	// NetworkBW is the bandwidth of the network path to the storage. Zero
	// means the storage is local to the node (no network hop).
	NetworkBW units.Bandwidth
	// DiskBW is the aggregate disk I/O bandwidth of the storage.
	DiskBW units.Bandwidth
	// Capacity limits total resident data. Zero means unlimited.
	Capacity units.Bytes
	// StreamCap bounds the rate of a single I/O stream (POSIX single-stream
	// throughput). Zero means unbounded. This is a calibration parameter,
	// not part of Table I; it reproduces the paper's observation that the
	// achieved bandwidth saturates far below the peak.
	StreamCap units.Bandwidth
	// ReadLatency and WriteLatency are fixed per-operation latencies in
	// seconds (connection + metadata cost per file operation).
	ReadLatency  float64
	WriteLatency float64
}

// Validate reports configuration errors.
func (s *StorageConfig) Validate(name string) error {
	if s.DiskBW <= 0 {
		return fmt.Errorf("platform: %s disk bandwidth must be positive, got %v", name, s.DiskBW)
	}
	if s.NetworkBW < 0 {
		return fmt.Errorf("platform: %s network bandwidth must be non-negative, got %v", name, s.NetworkBW)
	}
	if s.Capacity < 0 {
		return fmt.Errorf("platform: %s capacity must be non-negative, got %v", name, s.Capacity)
	}
	if s.StreamCap < 0 {
		return fmt.Errorf("platform: %s stream cap must be non-negative, got %v", name, s.StreamCap)
	}
	if s.ReadLatency < 0 || s.WriteLatency < 0 {
		return fmt.Errorf("platform: %s latencies must be non-negative", name)
	}
	return nil
}

// Config is a complete platform description.
type Config struct {
	Name         string
	Nodes        int
	CoresPerNode int
	CoreSpeed    units.FlopRate
	RAMPerNode   units.Bytes
	// NodeLinkBW is each compute node's injection bandwidth into the
	// interconnect. Not part of Table I; set high enough that it only
	// matters when many concurrent remote streams leave one node.
	NodeLinkBW units.Bandwidth

	PFS    StorageConfig
	BB     StorageConfig
	BBKind BBKind
	BBMode BBMode
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("platform: node count must be positive, got %d", c.Nodes)
	}
	if c.CoresPerNode <= 0 {
		return fmt.Errorf("platform: cores per node must be positive, got %d", c.CoresPerNode)
	}
	if c.CoreSpeed <= 0 {
		return fmt.Errorf("platform: core speed must be positive, got %v", c.CoreSpeed)
	}
	if c.NodeLinkBW <= 0 {
		return fmt.Errorf("platform: node link bandwidth must be positive, got %v", c.NodeLinkBW)
	}
	if err := c.PFS.Validate("PFS"); err != nil {
		return err
	}
	if err := c.BB.Validate("BB"); err != nil {
		return err
	}
	switch c.BBKind {
	case BBShared:
		if c.BBMode != BBPrivate && c.BBMode != BBStriped {
			return fmt.Errorf("platform: shared BB requires mode private or striped, got %q", c.BBMode)
		}
	case BBOnNode:
		if c.BBMode != BBModeNone {
			return fmt.Errorf("platform: on-node BB takes no mode, got %q", c.BBMode)
		}
	default:
		return fmt.Errorf("platform: unknown BB kind %q", c.BBKind)
	}
	return nil
}

// Node is one compute node of an instantiated platform.
type Node struct {
	name      string
	index     int
	cores     int
	coreSpeed units.FlopRate
	ram       units.Bytes

	link *flow.Resource // injection link into the interconnect

	coresInUse int
	memInUse   units.Bytes
	down       bool
}

// Name returns the node's identifier.
func (n *Node) Name() string { return n.name }

// Index returns the node's position in the platform's node list.
func (n *Node) Index() int { return n.index }

// Cores returns the node's total core count.
func (n *Node) Cores() int { return n.cores }

// CoreSpeed returns the per-core compute speed.
func (n *Node) CoreSpeed() units.FlopRate { return n.coreSpeed }

// Link returns the node's injection-link resource.
func (n *Node) Link() *flow.Resource { return n.link }

// FreeCores returns the number of unallocated cores.
func (n *Node) FreeCores() int { return n.cores - n.coresInUse }

// Release returns k cores to the free pool.
func (n *Node) Release(k int) {
	if k <= 0 || n.coresInUse-k < 0 {
		panic(fmt.Sprintf("platform: release %d cores with %d in use", k, n.coresInUse))
	}
	n.coresInUse -= k
}

// FreeMemory returns the unreserved RAM. A node with no configured RAM is
// memory-unconstrained and reports the maximum value.
func (n *Node) FreeMemory() units.Bytes {
	if n.ram <= 0 {
		return units.Bytes(math.MaxFloat64)
	}
	return n.ram - n.memInUse
}

// Down reports whether the node is currently failed (fault injection).
func (n *Node) Down() bool { return n.down }

// SetDown marks the node failed or repaired. A failed node schedules no new
// work (HasResources reports false) but keeps its resource accounting, so
// tasks aborted on it release their allocations normally.
func (n *Node) SetDown(down bool) { n.down = down }

// HasResources reports whether k cores and mem bytes are both free. A
// failed node has no resources to offer.
func (n *Node) HasResources(k int, mem units.Bytes) bool {
	if n.down {
		return false
	}
	return n.cores-n.coresInUse >= k && (mem <= 0 || n.FreeMemory() >= mem)
}

// AllocateResources atomically reserves k cores and mem bytes of RAM,
// reporting whether the reservation succeeded.
func (n *Node) AllocateResources(k int, mem units.Bytes) bool {
	if k <= 0 {
		panic(fmt.Sprintf("platform: allocate %d cores", k))
	}
	if mem < 0 {
		panic(fmt.Sprintf("platform: allocate negative memory %v", mem))
	}
	if !n.HasResources(k, mem) {
		return false
	}
	n.coresInUse += k
	if n.ram > 0 {
		n.memInUse += mem
	}
	return true
}

// ReleaseResources returns k cores and mem bytes of RAM to the free pool.
func (n *Node) ReleaseResources(k int, mem units.Bytes) {
	n.Release(k)
	if n.ram > 0 && mem > 0 {
		n.memInUse -= mem
		if n.memInUse < 0 {
			panic(fmt.Sprintf("platform: memory over-release on %s", n.name))
		}
	}
}

// ComputeTime returns the execution time in seconds of a task with the given
// total sequential work on p cores under Amdahl's law (Eq. 2 of the paper):
// alpha is the non-parallelizable fraction; alpha = 0 is perfect speedup.
func (n *Node) ComputeTime(work units.Flops, p int, alpha float64) float64 {
	if p <= 0 {
		panic(fmt.Sprintf("platform: compute on %d cores", p))
	}
	if alpha < 0 || alpha > 1 {
		panic(fmt.Sprintf("platform: Amdahl fraction %g out of [0,1]", alpha))
	}
	seq := work.Seconds(n.coreSpeed)
	return float64(alpha*seq) + (1-alpha)*seq/float64(p)
}

// Platform is a Config instantiated on a simulation engine.
type Platform struct {
	cfg   Config
	eng   *sim.Engine
	net   *flow.Network
	nodes []*Node
}

// New instantiates the configuration: it creates the flow network and one
// injection-link resource per node.
func New(eng *sim.Engine, cfg Config) (*Platform, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Platform{cfg: cfg, eng: eng, net: flow.NewNetwork(eng)}
	for i := 0; i < cfg.Nodes; i++ {
		name := fmt.Sprintf("%s-node%03d", cfg.Name, i)
		p.nodes = append(p.nodes, &Node{
			name:      name,
			index:     i,
			cores:     cfg.CoresPerNode,
			coreSpeed: cfg.CoreSpeed,
			ram:       cfg.RAMPerNode,
			link:      p.net.NewResource(name+"-link", float64(cfg.NodeLinkBW)),
		})
	}
	return p, nil
}

// MustNew is New for known-good configurations (the presets); it panics on
// error.
//
//bbvet:allow unreached -- the preset constructor behind about thirty test call sites; porting each to New adds an error check apiece
func MustNew(eng *sim.Engine, cfg Config) *Platform {
	p, err := New(eng, cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Config returns the platform's configuration.
func (p *Platform) Config() Config { return p.cfg }

// Engine returns the simulation engine.
func (p *Platform) Engine() *sim.Engine { return p.eng }

// Network returns the flow network resources live on.
func (p *Platform) Network() *flow.Network { return p.net }

// Nodes returns the compute nodes.
func (p *Platform) Nodes() []*Node { return p.nodes }

// Node returns node i.
func (p *Platform) Node(i int) *Node { return p.nodes[i] }
