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
// measurement noise. ctx is the Manager's own context, refilled for every
// operation: it is valid during the call only, and a model must neither
// keep nor modify it.
type OpModel interface {
	Adjust(ctx *OpContext, base OpParams) OpParams
}

// IdentityModel returns base parameters unchanged. It is the OpModel of the
// paper's lightweight simulator.
type IdentityModel struct{}

// Adjust implements OpModel.
func (IdentityModel) Adjust(_ *OpContext, base OpParams) OpParams { return base }

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

// OpHandle identifies one storage operation of a Manager: the sim.Ref of
// its slot in the manager's operation pool, whose slots are reused once an
// operation completes or is cancelled. Cancel on a handle whose operation
// has ended is a no-op, even after the slot was reissued. The zero
// OpHandle behaves like an ended operation.
type OpHandle sim.Ref

// Completer is told when an operation completes. The tag is the one the
// operation was started with, so one long-lived completer — a pointer,
// stored in an interface without allocating — can serve many operations.
type Completer interface {
	OpDone(tag uint64)
}

// Func adapts a plain callback to a Completer, ignoring the tag, for call
// sites too cold to need one.
type Func func()

// OpDone implements Completer.
func (f Func) OpDone(uint64) { f() }

// op is one entry of the operation pool: an operation in flight while
// issued, zeroed and free otherwise, so a free slot keeps no references.
type op struct {
	kind     OpKind
	file     *workflow.File
	service  Service // read source, write or copy destination
	source   Service // copy source; nil otherwise
	node     *platform.Node
	started  float64
	fl       flow.Handle
	done     Completer // the caller's completer; may be nil
	tag      uint64
	reserved units.Bytes
}

// Manager starts storage operations and keeps per-service accounting.
type Manager struct {
	eng   *sim.Engine
	net   *flow.Network
	reg   *Registry
	model OpModel
	// ctx is the context handed to model, refilled per operation, so an
	// operation copies no context.
	ctx OpContext
	// ops is the pool every operation lives in.
	ops sim.Slab[op]
	// copyPaths caches Copy's read+write paths, indexed by nodeSlot, in
	// short lists searched by (source, destination): copies along one
	// route share one path slice, hence one flow class.
	copyPaths [][]route
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
	return &Manager{eng: eng, net: net, reg: reg, model: model}
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
// seconds (engine time deltas) — the only clock this layer knows. Callers
// skip it when no collector is set, so a run without metrics does no
// metrics work; a call without one records nothing but pays the lookup.
func (m *Manager) observeOp(svc Service, opKind string, size units.Bytes, dur float64) {
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

// PendingReserved returns the bytes reserved on svc by writes and copies
// still in flight (reservations not yet backed by a registered replica).
func (m *Manager) PendingReserved(svc Service) units.Bytes { return svc.state().pending }

// Stats returns the accumulated statistics for svc.
func (m *Manager) Stats(svc Service) ServiceStats { return svc.state().stats }

// adjust fills the manager's context for an operation of kind on svc (a
// copy from src when src is non-nil) and returns the model's parameters.
func (m *Manager) adjust(kind OpKind, svc, src Service, node *platform.Node, f *workflow.File, base OpParams) OpParams {
	c := &m.ctx
	c.Kind, c.Service, c.Source, c.Node, c.File = kind, svc, src, node, f
	c.InFlight, c.Time = svc.state().inFlight, m.eng.Now()
	p := m.model.Adjust(c, base)
	if p.SizeFactor <= 0 {
		panic(fmt.Sprintf("storage: op model produced size factor %g", p.SizeFactor))
	}
	if p.Latency < 0 {
		panic(fmt.Sprintf("storage: op model produced latency %g", p.Latency))
	}
	return p
}

// Read starts reading f from svc into node. When it completes, done (if
// non-nil) is called with tag.
func (m *Manager) Read(node *platform.Node, f *workflow.File, svc Service, done Completer, tag uint64) (OpHandle, error) {
	if !m.reg.Has(f, svc) {
		return OpHandle{}, fmt.Errorf("storage: read %q from %s: no replica there", f.ID(), svc.Name())
	}
	params := m.adjust(OpRead, svc, nil, node, f,
		OpParams{Latency: svc.ReadLatency(), RateCap: svc.StreamCap(node), SizeFactor: 1},
	)
	r, o := m.issue(OpRead, f, svc, nil, node, done, tag, 0)
	svc.state().inFlight++
	o.fl = m.net.StartFlow(
		float64(f.Size())*params.SizeFactor,
		svc.ReadPath(node),
		flow.Options{RateCap: float64(params.RateCap), Latency: params.Latency},
		m, r.Tag(),
	)
	return OpHandle(r), nil
}

// Write starts writing f from node to svc. Space is reserved up front; the
// replica registers when the write completes, and then done (if non-nil)
// is called with tag.
func (m *Manager) Write(node *platform.Node, f *workflow.File, svc Service, done Completer, tag uint64) (OpHandle, error) {
	if err := svc.Reserve(f.Size()); err != nil {
		return OpHandle{}, err
	}
	params := m.adjust(OpWrite, svc, nil, node, f,
		OpParams{Latency: svc.WriteLatency(), RateCap: svc.StreamCap(node), SizeFactor: 1},
	)
	r, o := m.issue(OpWrite, f, svc, nil, node, done, tag, f.Size())
	st := svc.state()
	st.inFlight++
	st.pending += f.Size()
	o.fl = m.net.StartFlow(
		float64(f.Size())*params.SizeFactor,
		svc.WritePath(node),
		flow.Options{RateCap: float64(params.RateCap), Latency: params.Latency},
		m, r.Tag(),
	)
	if m.onReserve != nil {
		m.onReserve(svc)
	}
	return OpHandle(r), nil
}

// Copy stages f from src to dst through node: one flow across the
// concatenation of the read and write paths, bounded by the tighter stream
// cap, paying both services' latencies. Space is reserved on dst up front.
// When the copy completes, done (if non-nil) is called with tag.
func (m *Manager) Copy(node *platform.Node, f *workflow.File, src, dst Service, done Completer, tag uint64) (OpHandle, error) {
	if !m.reg.Has(f, src) {
		return OpHandle{}, fmt.Errorf("storage: copy %q from %s: no replica there", f.ID(), src.Name())
	}
	if src == dst {
		return OpHandle{}, fmt.Errorf("storage: copy %q onto itself (%s)", f.ID(), src.Name())
	}
	if err := dst.Reserve(f.Size()); err != nil {
		return OpHandle{}, err
	}
	readCap := src.StreamCap(node)
	writeCap := dst.StreamCap(node)
	cap := readCap
	//bbvet:allow float-compare -- zero is the "uncapped" sentinel bandwidth, never a computed rate
	if cap == 0 || (writeCap > 0 && writeCap < cap) {
		cap = writeCap
	}
	params := m.adjust(OpCopy, dst, src, node, f,
		OpParams{Latency: src.ReadLatency() + dst.WriteLatency(), RateCap: cap, SizeFactor: 1},
	)
	r, o := m.issue(OpCopy, f, dst, src, node, done, tag, f.Size())
	st := dst.state()
	st.inFlight++
	st.pending += f.Size()
	o.fl = m.net.StartFlow(
		float64(f.Size())*params.SizeFactor,
		m.copyPath(node, src, dst),
		flow.Options{RateCap: float64(params.RateCap), Latency: params.Latency},
		m, r.Tag(),
	)
	if m.onReserve != nil {
		m.onReserve(dst)
	}
	return OpHandle(r), nil
}

// issue takes an operation slot and fills it in. A free slot is zero
// (Cancel and FlowDone zero it before freeing it), so the fields are set
// one by one rather than copied from a composite value.
func (m *Manager) issue(kind OpKind, f *workflow.File, svc, src Service, node *platform.Node, done Completer, tag uint64, reserved units.Bytes) (sim.Ref, *op) {
	r, o := m.ops.Alloc()
	o.kind, o.file, o.service, o.source, o.node = kind, f, svc, src, node
	o.started, o.done, o.tag, o.reserved = m.eng.Now(), done, tag, reserved
	return r, o
}

// route is one cached Copy path through a node.
type route struct {
	src, dst Service
	path     []*flow.Resource
}

// copyPath returns the concatenation of src's read path and dst's write
// path through node, built once per route.
func (m *Manager) copyPath(node *platform.Node, src, dst Service) []*flow.Resource {
	i := nodeSlot(node)
	m.copyPaths = reach(m.copyPaths, i)
	for _, c := range m.copyPaths[i] {
		if c.src == src && c.dst == dst {
			return c.path
		}
	}
	path := append(append([]*flow.Resource{}, src.ReadPath(node)...), dst.WritePath(node)...)
	m.copyPaths[i] = append(m.copyPaths[i], route{src: src, dst: dst, path: path})
	return path
}

// Done reports whether the operation has completed or been cancelled.
func (m *Manager) Done(h OpHandle) bool { return m.ops.Live(sim.Ref(h)) == nil }

// Cancel aborts the operation: its completer will not run, and a write's
// or copy's reservation is returned. A stale handle is a no-op.
func (m *Manager) Cancel(h OpHandle) {
	r := sim.Ref(h)
	o := m.ops.Live(r)
	if o == nil {
		return
	}
	m.net.Cancel(o.fl)
	st := o.service.state()
	st.inFlight--
	if o.reserved > 0 {
		st.pending -= o.reserved
		o.service.Release(o.reserved)
	}
	*o = op{}
	m.ops.Free(r.Index())
}

// FlowDone implements flow.Completer: every operation's flow completes
// through the manager, tagged with the operation's handle, so starting an
// operation allocates no callback. A flow is cancelled with its operation,
// so the tag always names a live one.
func (m *Manager) FlowDone(tag uint64) {
	slot := sim.RefOf(tag).Index()
	o := m.ops.At(slot)
	svc, size := o.service, o.file.Size()
	svc.state().inFlight--
	switch o.kind {
	case OpRead:
		dur := m.eng.Now() - o.started
		st := &svc.state().stats
		st.BytesRead += size
		st.ReadOps++
		st.ReadSeconds += dur
		if m.col != nil {
			m.observeOp(svc, metrics.OpRead, size, dur)
		}
	case OpWrite:
		// The reservation becomes a registered replica created by the
		// writing node.
		m.landReplica(o)
		dur := m.eng.Now() - o.started
		st := &svc.state().stats
		st.BytesWritten += size
		st.WriteOps++
		st.WriteSeconds += dur
		if m.col != nil {
			m.observeOp(svc, metrics.OpWrite, size, dur)
		}
	case OpCopy:
		// A read leg on the source and a write leg, landing the replica, on
		// the destination.
		src := o.source
		m.landReplica(o)
		dur := m.eng.Now() - o.started
		sst := &src.state().stats
		sst.BytesRead += size
		sst.ReadOps++
		sst.ReadSeconds += dur
		dstStats := &svc.state().stats
		dstStats.BytesWritten += size
		dstStats.WriteOps++
		dstStats.WriteSeconds += dur
		if m.col != nil {
			m.observeOp(src, metrics.OpRead, size, dur)
			m.observeOp(svc, metrics.OpWrite, size, dur)
		}
	}
	done, dtag := o.done, o.tag
	*o = op{}
	m.ops.Free(slot)
	if done != nil {
		done.OpDone(dtag)
	}
}

// landReplica turns a finished write's or copy's reservation on
// o.service into a replica created by o.node.
func (m *Manager) landReplica(o *op) {
	f, svc := o.file, o.service
	svc.state().pending -= f.Size()
	if m.reg.Has(f, svc) {
		// A concurrent operation already registered this replica (e.g. two
		// consumers relocating the same private-BB file to the PFS); the
		// duplicate's reservation must be returned or the space leaks.
		svc.Release(f.Size())
	}
	m.reg.AddFrom(f, svc, o.node)
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
