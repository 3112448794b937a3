// Package trace collects the time-stamped event log a simulation produces,
// mirroring the paper's simulator output ("the simulator simulates the
// execution of the workflow and outputs a time-stamped event trace; the
// date of the last event gives the overall makespan").
package trace

import (
	"errors"
	"os"
	"sort"
	"unicode/utf8"

	"bbwfsim/internal/jsonw"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// EventKind labels a trace event. Kinds are small dense integers, so
// Record counts them in a fixed array; String gives the names the JSON,
// JSONL and CSV outputs carry.
type EventKind uint8

const (
	// Task lifecycle event kinds, emitted by the execution engine. The
	// detail of TaskStart is the node; of ReadStart and WriteStart
	// "file@service"; of ReadEnd and WriteEnd the file. StageStart is
	// "file->service" for a stage-in and "file@service->pfs" for a
	// stage-out or a private-visibility relocation; StageEnd is the file
	// or "file@pfs" respectively. The others carry no detail. Operands
	// the text does not render (see Event) build the task records: each
	// event's M is its task's index, TaskStart carries the attempt's cores
	// and number (Started), and ReadEnd, WriteEnd and a stage-in's or
	// stage-out's StageEnd the file's bytes (Moved; a relocation's
	// StageEnd carries none). TaskEnd's X is the compute seconds the
	// attempt executed.
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

// Event is one time-stamped occurrence. Its detail is typed: a form tag
// says which operands the event carries and how they render as the
// detail text the EventKind comments give. The text exists only on
// output: every output (MarshalJSON, Save, JSONLSink and CSVSink) takes
// it from text, so recording an event builds no string.
type Event struct {
	Time   float64
	TaskID string
	// The detail operands: Name is a file ID, a node or service name, or
	// a cause; Place the service or node a file is at or goes to (or a
	// node failure's cause); X and Y numbers, N and M integers (see the
	// builders in detail.go). Some carry operands their text does not
	// render, which the task records and the metrics fold read: the
	// engine's task events carry the task's index in M, a task-start its
	// core count in X and attempt number in N (Started), a task-end's or
	// task-fail's X is the compute seconds the attempt executed, and a
	// read-end, write-end, stage-in or stage-out stage-end, ckpt-commit,
	// ckpt-drain, restart-from, adapt-replicate or copying adapt-spill
	// carries the bytes it moved (Moved).
	Name, Place string
	X, Y        float64
	N           int64
	M           int32
	Kind        EventKind
	form        form
	moved       bool // Y holds the bytes the event moved
}

// text returns what every output writes of ev beside its time: its
// kind's name, its task, and its detail text, appended to scratch[:0].
func (ev *Event) text(scratch []byte) (kind, task string, detail []byte) {
	return kindNames[ev.Kind], ev.TaskID, appendDetail(scratch[:0], ev)
}

// appendEvent appends ev to b as the compact JSON object
// {"time","kind","task","detail"}, the detail omitted when empty: the one
// form of an event in MarshalJSON and JSONLSink. It returns b and the
// detail text it rendered into scratch, for reuse. A NaN or infinite
// time has no JSON form and is an error.
func appendEvent(b, scratch []byte, ev *Event) ([]byte, []byte, error) {
	kind, task, detail := ev.text(scratch)
	b = append(b, `{"time":`...)
	b, err := jsonw.AppendFloat(b, ev.Time)
	b = append(b, `,"kind":`...)
	b = jsonw.AppendString(b, kind)
	b = append(b, `,"task":`...)
	b = jsonw.AppendString(b, task)
	if len(detail) > 0 {
		b = append(b, `,"detail":`...)
		b = jsonw.AppendString(b, string(detail))
	}
	return append(b, '}'), detail, err
}

// MarshalJSON writes the event as appendEvent does.
func (ev Event) MarshalJSON() ([]byte, error) {
	b, _, err := appendEvent(nil, nil, &ev)
	return b, err
}

// TaskRecord aggregates one task's execution. Record builds it from the
// task's events (see Record); nothing else writes it.
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
// scan an event slice, whatever the sink does with the events. A trace of
// a workflow run (ForWorkflow) also folds the task events into one record
// per task.
type Trace struct {
	WorkflowName string
	PlatformName string
	sink         Sink // nil on a counting trace
	// mem is the trace's own store, which bind puts in Retain's place in
	// its sink chain: the only case in which events and task records
	// outlive the run.
	mem      *memory
	makespan float64
	counts   [numKinds]int // per-kind event counts

	// The task records of a ForWorkflow trace. tasks is the workflow's
	// tasks by index; slot holds, per task index, 1 + the position in recs
	// of the task's live record, or 0 when it has none. A retaining trace
	// never frees a record, so recs is every record in first-touch order;
	// otherwise a task's end frees its record and free lists the positions
	// the next new records reuse.
	tasks []*workflow.Task
	slot  []int32
	recs  []*TaskRecord
	free  []int32
	// closer is the AttemptSink in the trace's sink chain, if any.
	closer AttemptSink
	// folded accumulates summary sums for task records freed by a
	// non-retaining trace; foldedOrder remembers first-fold order only so
	// Summarize's output stays deterministic without sorting a map.
	folded      map[string]*Summary
	foldedOrder []string
}

// New returns an empty trace whose events go to sink. A nil sink counts:
// the trace keeps the per-kind counts and the makespan, so memory is O(1),
// not O(total events). Retain keeps every event (and, on a ForWorkflow
// trace, every task record) in memory, which Events, Records, RenderGantt,
// MarshalJSON, Save and the invariants/replay harness require, alone or
// anywhere in a chain of Tees. Any other sink (JSONLSink, CSVSink)
// receives each event as it is recorded; the caller owns it and must
// Close it after the run. A trace from New keeps no task records: batch
// campaigns (internal/sched) record job events only.
func New(workflowName, platformName string, sink Sink) *Trace {
	t := &Trace{WorkflowName: workflowName, PlatformName: platformName}
	t.sink = t.bind(sink)
	return t
}

// bind returns the sink the trace emits to for the chain s, in one walk
// over its Tees: the first Retain becomes the trace's own store (a second
// one adds nothing), and the first AttemptSink is the one the trace hands
// task records to. The caller's tees are left as they are.
func (t *Trace) bind(s Sink) Sink {
	switch s := s.(type) {
	case retain:
		if t.mem == nil {
			t.mem = &memory{}
			return t.mem
		}
	case *tee:
		return &tee{t.bind(s.a), t.bind(s.b)}
	case AttemptSink:
		if t.closer == nil {
			t.closer = s
		}
	}
	return s
}

// ForWorkflow returns an empty trace of a run of wf, as New does, that
// also folds the run's task events into one record per task (see Record).
// Unless the trace retains, a task's end folds its record into the
// per-name summaries and frees it, so the records take O(active tasks)
// memory plus a 4-byte index per task.
func ForWorkflow(wf *workflow.Workflow, platformName string, sink Sink) *Trace {
	t := New(wf.Name(), platformName, sink)
	t.tasks = wf.Tasks()
	t.slot = make([]int32, len(t.tasks))
	return t
}

// AttemptSink is a sink that also reads task records. A ForWorkflow
// trace whose sink is one, or has one anywhere in its chain of Tees,
// hands it each task attempt's record as the attempt closes.
type AttemptSink interface {
	Sink
	// AttemptClosed receives the task-end or task-fail that closes an
	// attempt, with the task's record: at a task-end complete, before the
	// trace folds or frees it; at a task-fail as the attempt left it.
	AttemptClosed(ev Event, r *TaskRecord)
}

// Record logs an event of kind for taskID at time, whose detail operands
// are d's (see Named, At and the other detail builders): the per-kind
// count and makespan advance, the event goes to the trace's sink, and on
// a ForWorkflow trace a task event (whose M is the task's index) updates
// the task's record:
//
//   - task-ready sets ReadyAt; the task's first event since its record
//     was freed (or ever) creates the record;
//   - task-start (Started) sets Name, Node, Cores, StartedAt and Retries;
//   - compute-start sets ReadDoneAt, compute-end ComputeDone;
//   - a read-end adds the bytes it moved to BytesRead, a write-end or
//     stage-end to BytesWritten (one that carries none adds nothing);
//   - task-end sets FinishedAt, and on a stage task ReadDoneAt and
//     ComputeDone too, and hands the record to the sink chain's
//     AttemptSink. Unless the trace retains, it then folds the record
//     into the per-name summaries and frees it: a task re-run later
//     (lineage re-execution under faults) gets a fresh record and folds
//     again, so folded summaries count such tasks once per execution,
//     while a retaining trace keeps the one record;
//   - task-fail hands the record to the AttemptSink and changes nothing.
func (t *Trace) Record(time float64, kind EventKind, taskID string, d Event) {
	t.counts[kind]++
	if time > t.makespan {
		t.makespan = time
	}
	d.Time, d.Kind, d.TaskID = time, kind, taskID
	if kind <= TaskFail && t.slot != nil {
		t.foldTask(&d)
	}
	if t.sink != nil {
		t.sink.Emit(d)
	}
}

// foldTask applies a task event, of a kind up to TaskFail, to its task's
// record.
func (t *Trace) foldTask(d *Event) {
	switch d.Kind {
	case ReadStart, WriteStart, StageStart:
		return
	case TaskFail:
		if t.closer != nil {
			t.closer.AttemptClosed(*d, t.live(d.M, d.TaskID))
		}
		return
	}
	time := d.Time
	r := t.live(d.M, d.TaskID)
	switch d.Kind {
	case TaskReady:
		r.ReadyAt = time
	case TaskStart:
		r.Name, r.Node, r.StartedAt = t.tasks[d.M].Name(), d.Name, time
		r.Cores, r.Retries = int(d.X), int(d.N)-1
	case ComputeStart:
		r.ReadDoneAt = time
	case ComputeEnd:
		r.ComputeDone = time
	case ReadEnd:
		if b, ok := d.Bytes(); ok {
			r.BytesRead += units.Bytes(b)
		}
	case WriteEnd, StageEnd:
		if b, ok := d.Bytes(); ok {
			r.BytesWritten += units.Bytes(b)
		}
	case TaskEnd:
		r.FinishedAt = time
		if t.tasks[d.M].Kind() != workflow.KindCompute {
			r.ReadDoneAt, r.ComputeDone = time, time
		}
		if t.closer != nil {
			t.closer.AttemptClosed(*d, r)
		}
		if t.mem == nil {
			t.fold(r)
			t.free = append(t.free, t.slot[d.M]-1)
			t.slot[d.M] = 0
		}
	}
}

// live returns the live record of the task at index m, creating it in a
// freed position, or else a new one, if the task has none.
func (t *Trace) live(m int32, taskID string) *TaskRecord {
	if s := t.slot[m]; s != 0 {
		return t.recs[s-1]
	}
	if n := len(t.free); n > 0 {
		pos := t.free[n-1]
		t.free = t.free[:n-1]
		t.slot[m] = pos + 1
		r := t.recs[pos]
		*r = TaskRecord{TaskID: taskID}
		return r
	}
	r := &TaskRecord{TaskID: taskID}
	t.recs = append(t.recs, r)
	t.slot[m] = int32(len(t.recs))
	return r
}

// Task returns the live record of task wt, or nil if it has none. On a
// retaining trace every task's record stays live from its first event on;
// otherwise a record lives from the task's ready to its end.
//
//bbvet:allow unreached -- the read-only record lookup behind about twenty exec test assertions
func (t *Trace) Task(wt *workflow.Task) *TaskRecord {
	if i := wt.Index(); i < len(t.slot) && t.slot[i] != 0 {
		return t.recs[t.slot[i]-1]
	}
	return nil
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
	return t.recs
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
// are sorted by name. Records already folded at their task's end contribute through
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

// liveRecords returns the task records not folded yet: every record of a
// retaining trace, in first-touch order; otherwise the unfinished tasks'
// records, in task-ID order.
func (t *Trace) liveRecords() []*TaskRecord {
	if t.mem != nil {
		return t.recs
	}
	live := make([]*TaskRecord, 0, len(t.recs)-len(t.free))
	for _, s := range t.slot {
		if s != 0 {
			live = append(live, t.recs[s-1])
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].TaskID < live[j].TaskID })
	return live
}

// errNotRetained is MarshalJSON's and Save's error on a trace that does
// not retain.
var errNotRetained = errors.New("trace: cannot marshal a trace whose events went to a sink")

// MarshalJSON returns the trace as one indented JSON document, written in
// one pass through jsonw: {"events","makespan","platform","tasks",
// "workflow"}, every object's keys in sorted order, two-space indented,
// numbers in encoding/json's float64 form and each byte of invalid UTF-8
// in a string as U+FFFD. Only a retaining trace carries the full event
// log and task records the document holds.
func (t *Trace) MarshalJSON() ([]byte, error) {
	if t.mem == nil {
		return nil, errNotRetained
	}
	w := jsonw.New(nil)
	w.BeginObject()
	w.Key("events")
	if events := t.mem.events(); events == nil {
		w.Null()
	} else {
		w.BeginArray()
		var kind, task string
		var detail []byte
		for i := range events {
			ev := &events[i]
			kind, task, detail = ev.text(detail)
			w.BeginObject()
			if len(detail) > 0 {
				w.StringField("detail", validUTF8(string(detail)))
			}
			w.StringField("kind", kind)
			w.StringField("task", validUTF8(task))
			w.FloatField("time", ev.Time)
			w.EndObject()
		}
		w.EndArray()
	}
	w.FloatField("makespan", t.makespan)
	w.StringField("platform", validUTF8(t.PlatformName))
	w.Key("tasks")
	if t.recs == nil {
		w.Null()
	} else {
		w.BeginArray()
		for _, r := range t.recs {
			w.BeginObject()
			w.FloatField("bytesRead", float64(r.BytesRead))
			w.FloatField("bytesWritten", float64(r.BytesWritten))
			w.FloatField("computeDoneAt", r.ComputeDone)
			w.FloatField("cores", float64(r.Cores))
			w.FloatField("finishedAt", r.FinishedAt)
			w.StringField("name", validUTF8(r.Name))
			w.StringField("node", validUTF8(r.Node))
			w.FloatField("readDoneAt", r.ReadDoneAt)
			w.FloatField("readyAt", r.ReadyAt)
			if r.Retries != 0 {
				w.FloatField("retries", float64(r.Retries))
			}
			w.FloatField("startedAt", r.StartedAt)
			w.StringField("task", validUTF8(r.TaskID))
			w.EndObject()
		}
		w.EndArray()
	}
	w.StringField("workflow", validUTF8(t.WorkflowName))
	w.EndObject()
	return w.Bytes()
}

// Save writes MarshalJSON's document to path, ending in a newline.
func (t *Trace) Save(path string) error {
	buf, err := t.MarshalJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// validUTF8 returns s with each byte of invalid UTF-8 replaced by U+FFFD,
// as encoding/json decodes the \ufffd it encodes such a byte as.
func validUTF8(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	b := make([]byte, 0, len(s)+8)
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = utf8.AppendRune(b, utf8.RuneError)
		} else {
			b = append(b, s[i:i+size]...)
		}
		i += size
	}
	return string(b)
}
