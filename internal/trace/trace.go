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

// EventKind labels a trace event. Kinds are small dense integers, so
// Record counts them in a fixed array; String and MarshalText give the
// names the JSON, JSONL and CSV outputs carry.
type EventKind uint8

const (
	// Task lifecycle event kinds, emitted by the execution engine. The
	// detail of TaskStart is the node; of ReadStart and WriteStart
	// "file@service"; of ReadEnd and WriteEnd the file. StageStart is
	// "file->service" for a stage-in and "file@service->pfs" for a
	// stage-out or a private-visibility relocation; StageEnd is the file
	// or "file@pfs" respectively. The others carry no detail.
	TaskReady EventKind = iota
	TaskStart
	ReadStart
	ReadEnd
	ComputeStart
	ComputeEnd
	WriteStart
	WriteEnd
	StageStart
	StageEnd
	TaskEnd

	// Fault-injection and recovery event kinds (internal/faults, exec
	// recovery policies). Traces of fault-free runs never contain them.

	// TaskFail records a task attempt aborted by a fault; the detail is
	// the cause: the fault model's (e.g. "injected crash"), "node <node>
	// failed", "lost input from <producer>" or "lost input <file>".
	TaskFail
	// TaskRetry records a failed task re-entering the ready queue after its
	// recovery backoff ("attempt <n>"), or a finished task re-executing
	// because a node failure destroyed the only replica of one of its
	// outputs ("re-execution: output replica lost").
	TaskRetry
	// NodeFail and NodeRepair bracket a whole-node outage. The detail is
	// the node ("<node>: <cause>" on failure) or, in a batch campaign, its
	// index ("node<nnn>", zero-padded to three digits).
	NodeFail
	NodeRepair
	// BBReject records a burst-buffer allocation rejection injected by the
	// fault model; the detail is "file@service".
	BBReject
	// Fallback records a write gracefully redirected to the PFS after its
	// burst-buffer target was rejected ("file->pfs"), full ("file->pfs
	// (bb full)"), or degraded away.
	Fallback
	// DegradeStart and DegradeEnd bracket a transient bandwidth-degradation
	// window on a storage service (BB degradation or PFS brown-out); the
	// detail is "<service> x<factor> for <duration>s", then the service.
	DegradeStart
	DegradeEnd

	// Task-level checkpoint/restart event kinds (internal/ckpt policy,
	// exec engine). Runs without a checkpoint policy never contain them.

	// CkptBegin records a task starting a checkpoint write; the detail is
	// "file@service".
	CkptBegin
	// CkptCommit records a completed checkpoint: the snapshot is readable
	// from its target tier. The detail is "file@service p=<progress>",
	// where progress is the compute seconds the snapshot captures. The
	// write began at the task's last CkptBegin.
	CkptCommit
	// CkptDrain records an asynchronous BB→PFS drain copy completing; the
	// checkpoint is durable against node loss from this instant. The detail
	// is "file@service->pfs".
	CkptDrain
	// CkptLost records a checkpoint replica destroyed by a fault (a node
	// failure taking its burst buffer down); the detail is "file@service".
	CkptLost
	// RestartFrom records a retried task resuming from a surviving
	// checkpoint instead of recomputing from scratch. The detail mirrors
	// CkptCommit: "file@service p=<progress>", the compute seconds
	// recovered. The restore read ends at the task's next ComputeStart.
	RestartFrom

	// Runtime-adaptation event kinds (internal/adapt policy, exec
	// engine). Runs without an adaptation policy never contain them.

	// AdaptSpill records a replica spilled from a pressured burst buffer to
	// the PFS (evicted outright when the PFS already held a copy, copied
	// then evicted otherwise); the detail is "file@service".
	AdaptSpill
	// AdaptReplicate records a sole-replica input of a still-pending task
	// proactively copied to the PFS after a node failure or at the opening
	// of a BB degradation window; the detail is "file@service->pfs".
	AdaptReplicate
	// AdaptFallback records a stage-in or task write redirected from a
	// degraded burst buffer to the PFS by the degradation-aware admission
	// reaction; the detail is "file@service".
	AdaptFallback

	// Batch-scheduler event kinds (internal/sched). The TaskID field
	// carries the job ID; single-workflow runs never contain them.

	// JobSubmit records a job arriving in the scheduler's queue; the
	// detail is "nodes=<n> bb=<bytes> est=<estimated span>", the demands
	// every downstream consistency check needs.
	JobSubmit
	// JobReject records a job whose demands exceed the whole cluster,
	// refused at admission: "nodes=<n>/<cluster> bb=<bytes>/<cluster>".
	JobReject
	// JobStart records a job acquiring its nodes and burst-buffer
	// reservation and beginning stage-in; the detail repeats the held
	// resources ("nodes=<n> bb=<bytes>").
	JobStart
	// JobRun records stage-in completing and the compute phase starting.
	JobRun
	// JobStageOut records the compute phase completing and stage-out
	// starting.
	JobStageOut
	// JobEnd records stage-out completing: the job releases its nodes and
	// burst-buffer reservation.
	JobEnd
	// JobFail records a running job killed by a node failure; it releases
	// its resources at this instant. The detail is the node ("node<nnn>").
	JobFail

	numKinds // the number of declared kinds
)

// kindNames are the kinds' names on output.
var kindNames = [numKinds]string{
	TaskReady:      "task-ready",
	TaskStart:      "task-start",
	ReadStart:      "read-start",
	ReadEnd:        "read-end",
	ComputeStart:   "compute-start",
	ComputeEnd:     "compute-end",
	WriteStart:     "write-start",
	WriteEnd:       "write-end",
	StageStart:     "stage-start",
	StageEnd:       "stage-end",
	TaskEnd:        "task-end",
	TaskFail:       "task-fail",
	TaskRetry:      "task-retry",
	NodeFail:       "node-fail",
	NodeRepair:     "node-repair",
	BBReject:       "bb-reject",
	Fallback:       "fallback",
	DegradeStart:   "degrade-start",
	DegradeEnd:     "degrade-end",
	CkptBegin:      "ckpt-begin",
	CkptCommit:     "ckpt-commit",
	CkptDrain:      "ckpt-drain",
	CkptLost:       "ckpt-lost",
	RestartFrom:    "restart-from",
	AdaptSpill:     "adapt-spill",
	AdaptReplicate: "adapt-replicate",
	AdaptFallback:  "adapt-fallback",
	JobSubmit:      "job-submit",
	JobReject:      "job-reject",
	JobStart:       "job-start",
	JobRun:         "job-run",
	JobStageOut:    "job-stage-out",
	JobEnd:         "job-end",
	JobFail:        "job-fail",
}

// String returns the kind's name, e.g. "task-start".
func (k EventKind) String() string { return kindNames[k] }

// MarshalText encodes the kind as its name, so JSON carries "task-start".
func (k EventKind) MarshalText() ([]byte, error) { return []byte(kindNames[k]), nil }

// Event is one time-stamped occurrence. Its detail is typed: a form tag
// says which operands the event carries and how they render as the
// detail text the EventKind comments give. The text exists only on
// output (MarshalJSON, Save, JSONLSink and CSVSink), so recording an
// event builds no string.
type Event struct {
	Time   float64
	TaskID string
	// The detail operands: Name is a file ID, a node or service name, or
	// a cause; Place the service or node a file is at or goes to (or a
	// node failure's cause); X and Y numbers, N and M integers (see the
	// builders in detail.go). Some carry an operand their text does not
	// render, which the metrics fold reads: the engine's task events carry
	// the task's index in M, a task-end's or task-fail's X is the compute
	// seconds the attempt executed, and a ckpt-commit, ckpt-drain,
	// restart-from, adapt-replicate or copying adapt-spill carries the
	// bytes it moved (Moved).
	Name, Place string
	X, Y        float64
	N           int64
	M           int32
	Kind        EventKind
	form        form
	moved       bool // Y holds the bytes the event moved
}

// jsonEvent is an event's output schema.
type jsonEvent struct {
	Time   float64   `json:"time"`
	Kind   EventKind `json:"kind"`
	TaskID string    `json:"task"`
	Detail string    `json:"detail,omitempty"`
}

// MarshalJSON writes the event as {"time","kind","task","detail"}, with
// the detail rendered from its operands and omitted when empty.
func (ev Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonEvent{ev.Time, ev.Kind, ev.TaskID, string(appendDetail(nil, &ev))})
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
	sink         Sink // nil on a counting trace
	// mem is the retaining sink of a trace built with Retain: the only
	// case in which events and task records outlive the run.
	mem      *memory
	byTask   map[string]*TaskRecord
	makespan float64
	counts   [numKinds]int // per-kind event counts
	// folded accumulates summary sums for task records released by a
	// non-retaining trace; foldedOrder remembers first-fold order only so
	// Summarize's output stays deterministic without sorting a map.
	folded      map[string]*Summary
	foldedOrder []string
}

// New returns an empty trace whose events go to sink. A nil sink counts:
// the trace keeps the per-kind counts, the makespan and each task record
// until the task is released, when it folds the record into per-name
// summaries, so memory is O(active tasks), not O(total events). Retain
// keeps every event and task record in memory, which Events, Records,
// RenderGantt, MarshalJSON, Save and the invariants/replay harness
// require, also as the first sink of a Tee. Any other sink (JSONLSink,
// CSVSink) receives each event as it is recorded and folds records as a
// nil sink does; the caller owns it and must Close it after the run.
func New(workflowName, platformName string, sink Sink) *Trace {
	t := &Trace{
		WorkflowName: workflowName,
		PlatformName: platformName,
		sink:         sink,
		byTask:       map[string]*TaskRecord{},
	}
	switch s := sink.(type) {
	case retain:
		t.mem = &memory{}
		t.sink = t.mem
	case *tee:
		if s.a == Retain {
			t.mem = &memory{}
			t.sink = &tee{t.mem, s.b}
		}
	}
	return t
}

// Record logs an event of kind for taskID at time, whose detail operands
// are d's (see Named, At and the other detail builders): the per-kind
// count and makespan advance, and the event goes to the trace's sink.
func (t *Trace) Record(time float64, kind EventKind, taskID string, d Event) {
	t.counts[kind]++
	if time > t.makespan {
		t.makespan = time
	}
	if t.sink != nil {
		d.Time, d.Kind, d.TaskID = time, kind, taskID
		t.sink.Emit(d)
	}
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
func (t *Trace) CountKind(kind EventKind) int { return t.counts[kind] }

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
