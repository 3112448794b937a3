// Package trace collects the time-stamped event log a simulation produces,
// mirroring the paper's simulator output ("the simulator simulates the
// execution of the workflow and outputs a time-stamped event trace; the
// date of the last event gives the overall makespan").
package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"bbwfsim/internal/units"
)

// EventKind labels a trace event.
type EventKind string

// The event kinds emitted by the execution engine.
const (
	TaskReady    EventKind = "task-ready"
	TaskStart    EventKind = "task-start"
	ReadStart    EventKind = "read-start"
	ReadEnd      EventKind = "read-end"
	ComputeStart EventKind = "compute-start"
	ComputeEnd   EventKind = "compute-end"
	WriteStart   EventKind = "write-start"
	WriteEnd     EventKind = "write-end"
	StageStart   EventKind = "stage-start"
	StageEnd     EventKind = "stage-end"
	TaskEnd      EventKind = "task-end"
)

// Fault-injection and recovery event kinds (internal/faults, exec recovery
// policies). Traces of fault-free runs never contain them.
const (
	// TaskFail records a task attempt aborted by a fault (task crash, node
	// failure, or a lost input); the detail names the cause.
	TaskFail EventKind = "task-fail"
	// TaskRetry records a failed task re-entering the ready queue after its
	// recovery backoff, or a finished task re-executing because a node
	// failure destroyed the only replica of one of its outputs.
	TaskRetry EventKind = "task-retry"
	// NodeFail and NodeRepair bracket a whole-node outage; the detail is
	// the node name.
	NodeFail   EventKind = "node-fail"
	NodeRepair EventKind = "node-repair"
	// BBReject records a burst-buffer allocation rejection injected by the
	// fault model.
	BBReject EventKind = "bb-reject"
	// Fallback records a write gracefully redirected to the PFS after its
	// burst-buffer target was rejected, full, or degraded away.
	Fallback EventKind = "fallback"
	// DegradeStart and DegradeEnd bracket a transient bandwidth-degradation
	// window on a storage service (BB degradation or PFS brown-out).
	DegradeStart EventKind = "degrade-start"
	DegradeEnd   EventKind = "degrade-end"
)

// Task-level checkpoint/restart event kinds (internal/ckpt policy, exec
// engine). Runs without a checkpoint policy never contain them.
const (
	// CkptBegin records a task starting a checkpoint write; the detail is
	// "file@service".
	CkptBegin EventKind = "ckpt-begin"
	// CkptCommit records a completed checkpoint: the snapshot is readable
	// from its target tier. The detail is "file@service p=<progress>",
	// where progress is the compute seconds the snapshot captures.
	CkptCommit EventKind = "ckpt-commit"
	// CkptDrain records an asynchronous BB→PFS drain copy completing; the
	// checkpoint is durable against node loss from this instant. The detail
	// is "file@service->pfs".
	CkptDrain EventKind = "ckpt-drain"
	// CkptLost records a checkpoint replica destroyed by a fault (a node
	// failure taking its burst buffer down); the detail is "file@service".
	CkptLost EventKind = "ckpt-lost"
	// RestartFrom records a retried task resuming from a surviving
	// checkpoint instead of recomputing from scratch. The detail mirrors
	// CkptCommit: "file@service p=<progress>", the compute seconds
	// recovered.
	RestartFrom EventKind = "restart-from"
)

// Runtime-adaptation event kinds (internal/adapt policy, exec engine). Runs
// without an adaptation policy never contain them.
const (
	// AdaptSpill records a replica spilled from a pressured burst buffer to
	// the PFS (evicted outright when the PFS already held a copy, copied
	// then evicted otherwise); the detail is "file@service".
	AdaptSpill EventKind = "adapt-spill"
	// AdaptReplicate records a sole-replica input of a still-pending task
	// proactively copied to the PFS after a node failure or at the opening
	// of a BB degradation window; the detail is "file@service->pfs".
	AdaptReplicate EventKind = "adapt-replicate"
	// AdaptFallback records a stage-in or task write redirected from a
	// degraded burst buffer to the PFS by the degradation-aware admission
	// reaction; the detail is "file@service".
	AdaptFallback EventKind = "adapt-fallback"
)

// Batch-scheduler event kinds (internal/sched). The TaskID field carries
// the job ID; single-workflow runs never contain them.
const (
	// JobSubmit records a job arriving in the scheduler's queue; the
	// detail is "nodes=<n> bb=<bytes> est=<estimated span>", the demands
	// every downstream consistency check needs.
	JobSubmit EventKind = "job-submit"
	// JobReject records a job whose demands exceed the whole cluster,
	// refused at admission.
	JobReject EventKind = "job-reject"
	// JobStart records a job acquiring its nodes and burst-buffer
	// reservation and beginning stage-in; the detail repeats the held
	// resources ("nodes=<n> bb=<bytes>").
	JobStart EventKind = "job-start"
	// JobRun records stage-in completing and the compute phase starting.
	JobRun EventKind = "job-run"
	// JobStageOut records the compute phase completing and stage-out
	// starting.
	JobStageOut EventKind = "job-stage-out"
	// JobEnd records stage-out completing: the job releases its nodes and
	// burst-buffer reservation.
	JobEnd EventKind = "job-end"
	// JobFail records a running job killed by a node failure; it releases
	// its resources at this instant. The detail names the failed node.
	JobFail EventKind = "job-fail"
)

// numKinds is the number of declared event kinds.
const numKinds = 34

// ordinal numbers the declared event kinds densely from 0, so per-kind
// counts live in a fixed array instead of a map; -1 for any other value.
func (k EventKind) ordinal() int {
	switch k {
	case TaskReady:
		return 0
	case TaskStart:
		return 1
	case ReadStart:
		return 2
	case ReadEnd:
		return 3
	case ComputeStart:
		return 4
	case ComputeEnd:
		return 5
	case WriteStart:
		return 6
	case WriteEnd:
		return 7
	case StageStart:
		return 8
	case StageEnd:
		return 9
	case TaskEnd:
		return 10
	case TaskFail:
		return 11
	case TaskRetry:
		return 12
	case NodeFail:
		return 13
	case NodeRepair:
		return 14
	case BBReject:
		return 15
	case Fallback:
		return 16
	case DegradeStart:
		return 17
	case DegradeEnd:
		return 18
	case CkptBegin:
		return 19
	case CkptCommit:
		return 20
	case CkptDrain:
		return 21
	case CkptLost:
		return 22
	case RestartFrom:
		return 23
	case AdaptSpill:
		return 24
	case AdaptReplicate:
		return 25
	case AdaptFallback:
		return 26
	case JobSubmit:
		return 27
	case JobReject:
		return 28
	case JobStart:
		return 29
	case JobRun:
		return 30
	case JobStageOut:
		return 31
	case JobEnd:
		return 32
	case JobFail:
		return 33
	}
	return -1
}

// Event is one time-stamped occurrence.
type Event struct {
	Time   float64   `json:"time"`
	Kind   EventKind `json:"kind"`
	TaskID string    `json:"task"`
	Detail string    `json:"detail,omitempty"`
}

// TaskRecord aggregates one task's execution.
type TaskRecord struct {
	TaskID string `json:"task"`
	Name   string `json:"name"`
	Node   string `json:"node"`
	Cores  int    `json:"cores"`

	ReadyAt     float64 `json:"readyAt"`
	StartedAt   float64 `json:"startedAt"`
	ReadDoneAt  float64 `json:"readDoneAt"`
	ComputeDone float64 `json:"computeDoneAt"`
	FinishedAt  float64 `json:"finishedAt"`

	BytesRead    units.Bytes `json:"bytesRead"`
	BytesWritten units.Bytes `json:"bytesWritten"`

	// Retries counts additional attempts after fault-injected failures; the
	// phase timestamps above describe the final (successful) attempt. Zero,
	// and absent from the JSON form, on fault-free runs.
	Retries int `json:"retries,omitempty"`
}

// ExecTime returns the task's wall time from start to finish.
func (r *TaskRecord) ExecTime() float64 { return r.FinishedAt - r.StartedAt }

// IOTime returns the time spent in I/O phases (input reads + output
// writes).
func (r *TaskRecord) IOTime() float64 {
	return (r.ReadDoneAt - r.StartedAt) + (r.FinishedAt - r.ComputeDone)
}

// ComputeTime returns the time spent in the compute phase.
func (r *TaskRecord) ComputeTime() float64 { return r.ComputeDone - r.ReadDoneAt }

// WaitTime returns the time spent queued (ready but not started).
func (r *TaskRecord) WaitTime() float64 { return r.StartedAt - r.ReadyAt }

// Trace is the full output of one simulated execution. Every recorded event
// goes to the trace's Sink; makespan and per-kind event counts are kept by
// the trace itself, so CountKind and the fault tallies in core.Result never
// scan an event slice, whatever the sink does with the events.
type Trace struct {
	WorkflowName string
	PlatformName string
	sink         Sink
	// mem is the retaining sink when the trace was built without one: the
	// only case in which events and task records outlive the run.
	mem      *memory
	byTask   map[string]*TaskRecord
	makespan float64
	counts   [numKinds]int // per-kind event counts, by EventKind.ordinal
	// folded accumulates summary sums for task records released by a
	// non-retaining trace; foldedOrder remembers first-fold order only so
	// Summarize's output stays deterministic without sorting a map.
	folded      map[string]*Summary
	foldedOrder []string
}

// New returns an empty trace whose events go to sink. A nil sink retains:
// every event and task record stays in memory, which Events, Records,
// Gantt, MarshalJSON, Save and the invariants/replay harness require. Any
// other sink (JSONLSink, CSVSink, Discard) receives each event as it is
// recorded, and the trace folds each task record into per-name summaries
// when the task is released, so memory is O(active tasks), not O(total
// events). The caller owns a non-nil sink and must Close it after the run.
func New(workflowName, platformName string, sink Sink) *Trace {
	t := &Trace{
		WorkflowName: workflowName,
		PlatformName: platformName,
		sink:         sink,
		byTask:       map[string]*TaskRecord{},
	}
	if sink == nil {
		t.mem = &memory{}
		t.sink = t.mem
	}
	return t
}

// Record logs an event: the per-kind count and makespan advance, and the
// event goes to the trace's sink. The kind must be one of the declared
// EventKind constants.
func (t *Trace) Record(time float64, kind EventKind, taskID, detail string) {
	i := kind.ordinal()
	if i < 0 {
		panic(fmt.Sprintf("trace: undeclared event kind %q", kind))
	}
	t.counts[i]++
	if time > t.makespan {
		t.makespan = time
	}
	t.sink.Emit(Event{Time: time, Kind: kind, TaskID: taskID, Detail: detail})
}

// Task returns (creating if necessary) the record for taskID.
func (t *Trace) Task(taskID string) *TaskRecord {
	if r := t.byTask[taskID]; r != nil {
		return r
	}
	r := &TaskRecord{TaskID: taskID}
	t.byTask[taskID] = r
	if t.mem != nil {
		t.mem.records = append(t.mem.records, r)
	}
	return r
}

// Lookup returns the record for taskID, or nil.
func (t *Trace) Lookup(taskID string) *TaskRecord {
	return t.byTask[taskID]
}

// Release folds taskID's completed record into the per-name summary
// accumulators and frees it. A retaining trace keeps every record, so there
// it is a no-op; otherwise the execution engine calls it as each task
// finishes, which is what keeps live state O(active tasks). A task re-run
// later (lineage re-execution under faults) simply gets a fresh record and
// folds again, so folded summaries count such tasks once per execution.
func (t *Trace) Release(taskID string) {
	if t.mem != nil {
		return
	}
	r := t.byTask[taskID]
	if r == nil {
		return
	}
	delete(t.byTask, taskID)
	t.fold(r)
}

func (t *Trace) fold(r *TaskRecord) {
	s := t.folded[r.Name]
	if s == nil {
		s = &Summary{Name: r.Name}
		if t.folded == nil {
			t.folded = map[string]*Summary{}
		}
		t.folded[r.Name] = s
		t.foldedOrder = append(t.foldedOrder, r.Name)
	}
	// Accumulate sums; Summarize divides by Count on the way out.
	s.Count++
	s.MeanExec += r.ExecTime()
	if r.ExecTime() > s.MaxExec {
		s.MaxExec = r.ExecTime()
	}
	s.MeanIO += r.IOTime()
	s.MeanCompute += r.ComputeTime()
	s.MeanWait += r.WaitTime()
	s.BytesRead += r.BytesRead
	s.BytesWritten += r.BytesWritten
}

// Events returns all events in recording order (which is time order, since
// the simulation clock is monotone). Non-retaining traces return nil.
func (t *Trace) Events() []Event {
	if t.mem == nil {
		return nil
	}
	return t.mem.events()
}

// Records returns all task records in first-touch order. Non-retaining
// traces return nil.
func (t *Trace) Records() []*TaskRecord {
	if t.mem == nil {
		return nil
	}
	return t.mem.records
}

// Makespan returns the time of the last recorded event.
func (t *Trace) Makespan() float64 { return t.makespan }

// CountKind returns the number of recorded events of the given kind, the
// basis of the fault/recovery counters in core.Result. The counts are
// maintained incrementally by Record, so this is O(1) whatever the sink
// (TestCountKindMatchesScan pins it against a full scan).
func (t *Trace) CountKind(kind EventKind) int {
	if i := kind.ordinal(); i >= 0 {
		return t.counts[i]
	}
	return 0
}

// Summary aggregates task records by task name.
type Summary struct {
	Name         string
	Count        int
	MeanExec     float64
	MaxExec      float64
	MeanIO       float64
	MeanCompute  float64
	MeanWait     float64
	BytesRead    units.Bytes
	BytesWritten units.Bytes
}

// Summarize groups records by task name and averages their phases. Results
// are sorted by name. Records already folded by Release contribute through
// their accumulators; the live ones are folded on a copy, so repeated calls
// are deterministic and non-mutating.
func (t *Trace) Summarize() []Summary {
	acc := Trace{
		folded:      make(map[string]*Summary, len(t.folded)),
		foldedOrder: append([]string(nil), t.foldedOrder...),
	}
	for _, name := range acc.foldedOrder {
		cp := *t.folded[name]
		acc.folded[name] = &cp
	}
	for _, r := range t.liveRecords() {
		acc.fold(r)
	}
	out := make([]Summary, 0, len(acc.foldedOrder))
	for _, name := range acc.foldedOrder {
		s := *acc.folded[name]
		n := float64(s.Count)
		s.MeanExec /= n
		s.MeanIO /= n
		s.MeanCompute /= n
		s.MeanWait /= n
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// liveRecords returns the task records Release has not folded: every record
// of a retaining trace, in first-touch order; otherwise the unfinished
// tasks' records, in task-ID order.
func (t *Trace) liveRecords() []*TaskRecord {
	if t.mem != nil {
		return t.mem.records
	}
	live := make([]*TaskRecord, 0, len(t.byTask))
	for _, r := range t.byTask {
		live = append(live, r)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].TaskID < live[j].TaskID })
	return live
}

// GanttRow is one bar of a Gantt chart.
type GanttRow struct {
	TaskID string  `json:"task"`
	Name   string  `json:"name"`
	Node   string  `json:"node"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Phase  string  `json:"phase"` // "read", "compute", "write"
}

// Gantt expands each task record into its read/compute/write bars, sorted
// by start time then task ID.
func (t *Trace) Gantt() []GanttRow {
	var rows []GanttRow
	for _, r := range t.Records() {
		if r.ReadDoneAt > r.StartedAt {
			rows = append(rows, GanttRow{r.TaskID, r.Name, r.Node, r.StartedAt, r.ReadDoneAt, "read"})
		}
		if r.ComputeDone > r.ReadDoneAt {
			rows = append(rows, GanttRow{r.TaskID, r.Name, r.Node, r.ReadDoneAt, r.ComputeDone, "compute"})
		}
		if r.FinishedAt > r.ComputeDone {
			rows = append(rows, GanttRow{r.TaskID, r.Name, r.Node, r.ComputeDone, r.FinishedAt, "write"})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		//bbvet:allow float-compare -- sort tie-break: exact equality falls through to the TaskID tie-breaker for a deterministic order
		if rows[i].Start != rows[j].Start {
			return rows[i].Start < rows[j].Start
		}
		return rows[i].TaskID < rows[j].TaskID
	})
	return rows
}

// jsonTrace is the export schema.
type jsonTrace struct {
	Workflow string        `json:"workflow"`
	Platform string        `json:"platform"`
	Makespan float64       `json:"makespan"`
	Tasks    []*TaskRecord `json:"tasks"`
	Events   []Event       `json:"events"`
}

// MarshalJSON implements json.Marshaler. Only a retaining trace carries the
// full event log and task records the schema promises.
func (t *Trace) MarshalJSON() ([]byte, error) {
	if t.mem == nil {
		return nil, fmt.Errorf("trace: cannot marshal a trace whose events went to a sink")
	}
	return json.Marshal(jsonTrace{
		Workflow: t.WorkflowName,
		Platform: t.PlatformName,
		Makespan: t.makespan,
		Tasks:    t.mem.records,
		Events:   t.mem.events(),
	})
}

// Save writes the trace as indented JSON.
func (t *Trace) Save(path string) error {
	raw, err := t.MarshalJSON()
	if err != nil {
		return err
	}
	var buf []byte
	{
		var pretty map[string]any
		if err := json.Unmarshal(raw, &pretty); err != nil {
			return err
		}
		buf, err = json.MarshalIndent(pretty, "", "  ")
		if err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
