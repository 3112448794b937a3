package storage

import (
	"fmt"

	"bbwfsim/internal/flow"
	"bbwfsim/internal/metrics"
	"bbwfsim/internal/platform"
	"bbwfsim/internal/sim"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// OpKind identifies a storage operation.
type OpKind string

const (
	// OpRead moves file content from a service to a compute node.
	OpRead OpKind = "read"
	// OpWrite moves file content from a compute node to a service.
	OpWrite OpKind = "write"
	// OpCopy moves file content service-to-service through a compute node
	// (stage-in / stage-out).
	OpCopy OpKind = "copy"
)

// OpParams are the tunable characteristics of one operation. The base
// values come from the target service; an OpModel may adjust them.
type OpParams struct {
	// Latency is the fixed per-operation cost in seconds before data moves.
	Latency float64
	// RateCap bounds the stream rate in bytes/s; 0 means unbounded.
	RateCap units.Bandwidth
	// SizeFactor scales the effective transfer volume; values above 1 model
	// overheads that stretch the transfer (noise, fragmentation). Must be
	// positive.
	SizeFactor float64
}

// OpContext describes an operation to an OpModel.
type OpContext struct {
	Kind    OpKind
	Service Service // target: the read source, write destination, or copy destination
	Source  Service // copy source; nil otherwise
	Node    *platform.Node
	File    *workflow.File
	// InFlight is the number of operations already in flight on Service
	// when this one starts.
	InFlight int
	// Time is the virtual time the operation starts.
	Time float64
}

// OpModel adjusts operation parameters. The lightweight simulator uses the
// identity model; the synthetic testbed (internal/testbed) installs a model
// that adds mode-dependent latency, contention penalties, anomalies, and
// measurement noise.
type OpModel interface {
	Adjust(ctx OpContext, base OpParams) OpParams
}

// IdentityModel returns base parameters unchanged. It is the OpModel of the
// paper's lightweight simulator.
type IdentityModel struct{}

// Adjust implements OpModel.
func (IdentityModel) Adjust(_ OpContext, base OpParams) OpParams { return base }

// ServiceStats aggregates the traffic a service carried.
type ServiceStats struct {
	BytesRead    units.Bytes
	BytesWritten units.Bytes
	ReadOps      int
	WriteOps     int
	// ReadSeconds and WriteSeconds sum per-operation wall durations
	// (latency included), for achieved-bandwidth reporting (Fig. 9).
	ReadSeconds  float64
	WriteSeconds float64
}

// ReadBandwidth returns the average achieved read bandwidth.
func (s ServiceStats) ReadBandwidth() units.Bandwidth {
	if s.ReadSeconds <= 0 {
		return 0
	}
	return units.Bandwidth(float64(s.BytesRead) / s.ReadSeconds)
}

// WriteBandwidth returns the average achieved write bandwidth.
func (s ServiceStats) WriteBandwidth() units.Bandwidth {
	if s.WriteSeconds <= 0 {
		return 0
	}
	return units.Bandwidth(float64(s.BytesWritten) / s.WriteSeconds)
}

// Op is a storage operation in flight.
type Op struct {
	Kind    OpKind
	File    *workflow.File
	Service Service
	Source  Service
	Node    *platform.Node
	Started float64

	fl        *flow.Flow
	mgr       *Manager
	onDone    func() // the caller's completion callback; may be nil
	reserved  units.Bytes
	cancelled bool
	finished  bool
}

// Cancel aborts the operation: its callback will not run, and a write's
// reservation is returned.
func (o *Op) Cancel() {
	if o.finished || o.cancelled {
		return
	}
	o.cancelled = true
	o.fl.Cancel()
	o.mgr.inFlight[o.Service]--
	if o.reserved > 0 {
		o.mgr.pending[o.Service] -= o.reserved
		o.Service.Release(o.reserved)
	}
}

// Manager starts storage operations and keeps per-service accounting.
type Manager struct {
	eng      *sim.Engine
	net      *flow.Network
	reg      *Registry
	model    OpModel
	inFlight map[Service]int
	// pending tracks capacity reserved by writes/copies still in flight:
	// space that Used() already counts but the registry does not yet see.
	pending map[Service]units.Bytes
	stats   map[Service]*ServiceStats
	// col receives per-operation metrics at completion; nil (the default)
	// costs nothing beyond the nil-receiver check inside the collector.
	col *metrics.Collector
	// held caches col's storage series per (tier, op) — indexed by
	// tierIndex, then read 0 / write 1 — from the first operation observed
	// on each, so a completion costs no series lookups.
	held [3][2]opSeries
	// onReserve, if set, runs after each successful write/copy reservation
	// with the destination service. The adaptation layer (internal/exec)
	// uses it as its occupancy-pressure probe: reservations are the only
	// moments committed-plus-pending usage rises.
	onReserve func(Service)
}

// NewManager builds a manager over the platform's flow network. A nil model
// means the identity model.
func NewManager(eng *sim.Engine, net *flow.Network, reg *Registry, model OpModel) *Manager {
	if model == nil {
		model = IdentityModel{}
	}
	return &Manager{
		eng:      eng,
		net:      net,
		reg:      reg,
		model:    model,
		inFlight: map[Service]int{},
		pending:  map[Service]units.Bytes{},
		stats:    map[Service]*ServiceStats{},
	}
}

// SetMetrics attaches a collector; every operation completion then records
// bytes, op counts, and virtual-duration histograms per (tier, op).
func (m *Manager) SetMetrics(col *metrics.Collector) {
	m.col = col
	m.held = [3][2]opSeries{}
}

// OnReserve installs a hook that runs after every successful write/copy
// reservation, receiving the destination service. It fires after the
// operation is fully in flight, so the hook may itself start operations
// (the adaptation layer spills under the very reservation that crossed its
// high-water mark). A nil hook (the default) costs one nil check.
func (m *Manager) OnReserve(fn func(Service)) { m.onReserve = fn }

// opSeries are the collector series one (tier, op) pair feeds.
type opSeries struct {
	held             bool
	bytes, ops, secs metrics.HeldCounter
	durations        metrics.HeldHistogram
}

// tierIndex numbers the storage tiers for Manager.held; -1 for a kind it
// does not know, whose series are then looked up per operation.
func tierIndex(k Kind) int {
	switch k {
	case KindPFS:
		return 0
	case KindSharedBB:
		return 1
	case KindNodeBB:
		return 2
	}
	return -1
}

// observeOp records one completed operation leg. Durations are virtual
// seconds (engine time deltas) — the only clock this layer knows.
func (m *Manager) observeOp(svc Service, opKind string, size units.Bytes, dur float64) {
	if m.col == nil {
		return
	}
	s := m.series(svc.Kind(), opKind)
	s.bytes.Add(float64(size))
	s.ops.Add(1)
	s.secs.Add(dur)
	s.durations.Observe(dur)
}

// series returns the collector series of (tier, op), holding them on
// first use.
func (m *Manager) series(tier Kind, opKind string) opSeries {
	t, w := tierIndex(tier), 0
	if opKind == metrics.OpWrite {
		w = 1
	}
	if t >= 0 && m.held[t][w].held {
		return m.held[t][w]
	}
	k := metrics.Key{Tier: string(tier), Op: opKind}
	s := opSeries{
		held:      true,
		bytes:     m.col.HoldCounter(metrics.StorageBytesTotal, k),
		ops:       m.col.HoldCounter(metrics.StorageOpsTotal, k),
		secs:      m.col.HoldCounter(metrics.StorageOpSecondsTotal, k),
		durations: m.col.HoldHistogram(metrics.StorageOpSeconds, k),
	}
	if t >= 0 {
		m.held[t][w] = s
	}
	return s
}

// Registry returns the file-location registry the manager updates.
func (m *Manager) Registry() *Registry { return m.reg }

// InFlight returns the number of operations currently running on svc.
func (m *Manager) InFlight(svc Service) int { return m.inFlight[svc] }

// PendingReserved returns the bytes reserved on svc by writes and copies
// still in flight (reservations not yet backed by a registered replica).
func (m *Manager) PendingReserved(svc Service) units.Bytes { return m.pending[svc] }

// Stats returns the accumulated statistics for svc.
func (m *Manager) Stats(svc Service) ServiceStats {
	if s := m.stats[svc]; s != nil {
		return *s
	}
	return ServiceStats{}
}

func (m *Manager) statsFor(svc Service) *ServiceStats {
	s := m.stats[svc]
	if s == nil {
		s = &ServiceStats{}
		m.stats[svc] = s
	}
	return s
}

func (m *Manager) adjust(ctx OpContext, base OpParams) OpParams {
	ctx.InFlight = m.inFlight[ctx.Service]
	ctx.Time = m.eng.Now()
	p := m.model.Adjust(ctx, base)
	if p.SizeFactor <= 0 {
		panic(fmt.Sprintf("storage: op model produced size factor %g", p.SizeFactor))
	}
	if p.Latency < 0 {
		panic(fmt.Sprintf("storage: op model produced latency %g", p.Latency))
	}
	return p
}

// Read starts reading f from svc into node. onDone runs at completion.
func (m *Manager) Read(node *platform.Node, f *workflow.File, svc Service, onDone func()) (*Op, error) {
	if !m.reg.Has(f, svc) {
		return nil, fmt.Errorf("storage: read %q from %s: no replica there", f.ID(), svc.Name())
	}
	params := m.adjust(
		OpContext{Kind: OpRead, Service: svc, Node: node, File: f},
		OpParams{Latency: svc.ReadLatency(), RateCap: svc.StreamCap(node), SizeFactor: 1},
	)
	op := &Op{Kind: OpRead, File: f, Service: svc, Node: node, Started: m.eng.Now(), mgr: m, onDone: onDone}
	m.inFlight[svc]++
	op.fl = m.net.StartFlow(
		float64(f.Size())*params.SizeFactor,
		svc.ReadPath(node),
		flow.Options{RateCap: float64(params.RateCap), Latency: params.Latency},
		op.readDone,
	)
	return op, nil
}

// readDone completes a read. The flow calls it through a method value,
// which unlike a closure over the operation's arguments captures nothing
// but op.
func (op *Op) readDone() {
	m, svc, size := op.mgr, op.Service, op.File.Size()
	op.finished = true
	m.inFlight[svc]--
	dur := m.eng.Now() - op.Started
	st := m.statsFor(svc)
	st.BytesRead += size
	st.ReadOps++
	st.ReadSeconds += dur
	m.observeOp(svc, metrics.OpRead, size, dur)
	op.done()
}

// done runs the caller's callback, if any.
func (op *Op) done() {
	if op.onDone != nil {
		op.onDone()
	}
}

// Write starts writing f from node to svc. Space is reserved up front; the
// replica registers when the write completes.
func (m *Manager) Write(node *platform.Node, f *workflow.File, svc Service, onDone func()) (*Op, error) {
	if err := svc.Reserve(f.Size()); err != nil {
		return nil, err
	}
	params := m.adjust(
		OpContext{Kind: OpWrite, Service: svc, Node: node, File: f},
		OpParams{Latency: svc.WriteLatency(), RateCap: svc.StreamCap(node), SizeFactor: 1},
	)
	op := &Op{Kind: OpWrite, File: f, Service: svc, Node: node, Started: m.eng.Now(), mgr: m, onDone: onDone, reserved: f.Size()}
	m.inFlight[svc]++
	m.pending[svc] += f.Size()
	op.fl = m.net.StartFlow(
		float64(f.Size())*params.SizeFactor,
		svc.WritePath(node),
		flow.Options{RateCap: float64(params.RateCap), Latency: params.Latency},
		op.writeDone,
	)
	if m.onReserve != nil {
		m.onReserve(svc)
	}
	return op, nil
}

// writeDone completes a write: the reservation becomes a registered
// replica created by the writing node.
func (op *Op) writeDone() {
	m, svc, size := op.mgr, op.Service, op.File.Size()
	op.finished = true
	m.inFlight[svc]--
	m.landReplica(op)
	dur := m.eng.Now() - op.Started
	st := m.statsFor(svc)
	st.BytesWritten += size
	st.WriteOps++
	st.WriteSeconds += dur
	m.observeOp(svc, metrics.OpWrite, size, dur)
	op.done()
}

// landReplica turns a finished write's or copy's reservation on
// op.Service into a replica created by op.Node.
func (m *Manager) landReplica(op *Op) {
	f, svc := op.File, op.Service
	m.pending[svc] -= f.Size()
	if m.reg.Has(f, svc) {
		// A concurrent operation already registered this replica (e.g. two
		// consumers relocating the same private-BB file to the PFS); the
		// duplicate's reservation must be returned or the space leaks.
		svc.Release(f.Size())
	}
	m.reg.AddFrom(f, svc, op.Node)
}

// Copy stages f from src to dst through node: one flow across the
// concatenation of the read and write paths, bounded by the tighter stream
// cap, paying both services' latencies. Space is reserved on dst up front.
func (m *Manager) Copy(node *platform.Node, f *workflow.File, src, dst Service, onDone func()) (*Op, error) {
	if !m.reg.Has(f, src) {
		return nil, fmt.Errorf("storage: copy %q from %s: no replica there", f.ID(), src.Name())
	}
	if src == dst {
		return nil, fmt.Errorf("storage: copy %q onto itself (%s)", f.ID(), src.Name())
	}
	if err := dst.Reserve(f.Size()); err != nil {
		return nil, err
	}
	readCap := src.StreamCap(node)
	writeCap := dst.StreamCap(node)
	cap := readCap
	//bbvet:allow float-compare -- zero is the "uncapped" sentinel bandwidth, never a computed rate
	if cap == 0 || (writeCap > 0 && writeCap < cap) {
		cap = writeCap
	}
	params := m.adjust(
		OpContext{Kind: OpCopy, Service: dst, Source: src, Node: node, File: f},
		OpParams{Latency: src.ReadLatency() + dst.WriteLatency(), RateCap: cap, SizeFactor: 1},
	)
	path := append(append([]*flow.Resource{}, src.ReadPath(node)...), dst.WritePath(node)...)
	op := &Op{Kind: OpCopy, File: f, Service: dst, Source: src, Node: node, Started: m.eng.Now(), mgr: m, onDone: onDone, reserved: f.Size()}
	m.inFlight[dst]++
	m.pending[dst] += f.Size()
	op.fl = m.net.StartFlow(
		float64(f.Size())*params.SizeFactor,
		path,
		flow.Options{RateCap: float64(params.RateCap), Latency: params.Latency},
		op.copyDone,
	)
	if m.onReserve != nil {
		m.onReserve(dst)
	}
	return op, nil
}

// copyDone completes a copy: a read leg on the source and a write leg,
// landing the replica, on the destination.
func (op *Op) copyDone() {
	m, src, dst, size := op.mgr, op.Source, op.Service, op.File.Size()
	op.finished = true
	m.inFlight[dst]--
	m.landReplica(op)
	dur := m.eng.Now() - op.Started
	sst := m.statsFor(src)
	sst.BytesRead += size
	sst.ReadOps++
	sst.ReadSeconds += dur
	dstStats := m.statsFor(dst)
	dstStats.BytesWritten += size
	dstStats.WriteOps++
	dstStats.WriteSeconds += dur
	m.observeOp(src, metrics.OpRead, size, dur)
	m.observeOp(dst, metrics.OpWrite, size, dur)
	op.done()
}

// Evict removes the replica of f on svc and frees its space.
func (m *Manager) Evict(f *workflow.File, svc Service) error {
	if !m.reg.Has(f, svc) {
		return fmt.Errorf("storage: evict %q from %s: no replica there", f.ID(), svc.Name())
	}
	m.reg.Remove(f, svc)
	svc.Release(f.Size())
	return nil
}
