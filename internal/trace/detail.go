package trace

import (
	"fmt"

	"bbwfsim/internal/units"
)

// form tags which operands an event carries and, through formats, how
// they render as the detail text its EventKind comment gives.
type form uint8

const (
	formNone form = iota
	formName
	formAt
	formTo
	formFull
	formCopy
	formProgress
	formNodeCause
	formNodeFailed
	formLostFrom
	formLost
	formAttempt
	formDegrade
	formSubmit
	formHeld
	formReject
	formNode
)

// The functions below build the detail operands Record takes, as an Event
// whose other fields Record fills in; the zero Event is the empty detail.
// String operands are strings that already exist (file IDs, node and
// service names, constant causes), so no detail allocates.

// Named is one name: a node, service or file, or a cause.
func Named(name string) Event { return Event{form: formName, Name: name} }

// Started is a task's attempt-th start, on node with cores cores. Its
// text is the node; the cores (in X) and the attempt (in N) are operands
// only the task records read.
func Started(node string, cores, attempt int) Event {
	return Event{form: formName, Name: node, X: float64(cores), N: int64(attempt)}
}

// At is a file at a service or node.
func At(file, place string) Event { return Event{form: formAt, Name: file, Place: place} }

// To is a file staged into a service, or redirected to the PFS.
func To(file, place string) Event { return Event{form: formTo, Name: file, Place: place} }

// Full is a file redirected to the PFS because its BB target was full.
func Full(file string) Event { return Event{form: formFull, Name: file} }

// CopyToPFS is a file copied from a service to the PFS.
func CopyToPFS(file, place string) Event { return Event{form: formCopy, Name: file, Place: place} }

// Progress is a snapshot at a service capturing p compute seconds.
func Progress(file, place string, p float64) Event {
	return Event{form: formProgress, Name: file, Place: place, X: p}
}

// NodeCause is a workflow node failing for a cause.
func NodeCause(node, cause string) Event { return Event{form: formNodeCause, Name: node, Place: cause} }

// NodeFailed is an attempt killed by its node's failure.
func NodeFailed(node string) Event { return Event{form: formNodeFailed, Name: node} }

// LostFrom is an attempt aborted while its producer re-executes.
func LostFrom(producer string) Event { return Event{form: formLostFrom, Name: producer} }

// Lost is an attempt aborted because an input has no replica left.
func Lost(file string) Event { return Event{form: formLost, Name: file} }

// Attempt is a retry starting attempt n.
func Attempt(n int) Event { return Event{form: formAttempt, N: int64(n)} }

// Degrade is a service's bandwidth scaled by factor for duration seconds.
func Degrade(service string, factor, duration float64) Event {
	return Event{form: formDegrade, Name: service, X: factor, Y: duration}
}

// Submit is a job's demands: nodes, BB bytes and estimated span.
func Submit(nodes int, bb, est float64) Event {
	return Event{form: formSubmit, N: int64(nodes), X: bb, Y: est}
}

// Held is the nodes and BB bytes a starting job holds.
func Held(nodes int, bb float64) Event { return Event{form: formHeld, N: int64(nodes), X: bb} }

// Reject is a job's demands against its cluster's capacities.
func Reject(nodes, clusterNodes int, bb, clusterBB float64) Event {
	return Event{form: formReject, N: int64(nodes), M: int32(clusterNodes), X: bb, Y: clusterBB}
}

// Node is a batch-scheduler node by index.
func Node(index int) Event { return Event{form: formNode, N: int64(index)} }

// Moved returns d carrying size, the bytes its event moved, in Y, for a
// form whose text renders no Y. The outputs never show it; the metrics
// fold and the task records read it through Bytes. A spill that only
// evicts moves nothing and carries none, which is how the fold tells it
// from a zero-byte copy; a relocation's stage-end carries none either,
// since the bytes it moves are not the task's.
func (d Event) Moved(size units.Bytes) Event {
	d.Y, d.moved = float64(size), true
	return d
}

// Bytes returns the bytes Moved attached to ev, and whether it has any.
func (ev *Event) Bytes() (float64, bool) { return ev.Y, ev.moved }

// formats are the forms' detail texts, as fmt formats over the operands
// Name, Place, X, Y, N and M (arguments 1 to 6 of appendDetail's call).
var formats = [...]string{
	formName:       "%[1]s",
	formAt:         "%[1]s@%[2]s",
	formTo:         "%[1]s->%[2]s",
	formFull:       "%[1]s->pfs (bb full)",
	formCopy:       "%[1]s@%[2]s->pfs",
	formProgress:   "%[1]s@%[2]s p=%[3]g",
	formNodeCause:  "%[1]s: %[2]s",
	formNodeFailed: "node %[1]s failed",
	formLostFrom:   "lost input from %[1]s",
	formLost:       "lost input %[1]s",
	formAttempt:    "attempt %[5]d",
	formDegrade:    "%[1]s x%[3]g for %[4]gs",
	formSubmit:     "nodes=%[5]d bb=%.0[3]f est=%.6[4]g",
	formHeld:       "nodes=%[5]d bb=%.0[3]f",
	formReject:     "nodes=%[5]d/%[6]d bb=%.0[3]f/%.0[4]f",
	formNode:       "node%03[5]d",
}

// appendDetail appends ev's detail text to b: the one renderer of the
// detail grammar, which the outputs call as they write each event.
func appendDetail(b []byte, ev *Event) []byte {
	if ev.form == formNone {
		return b
	}
	return fmt.Appendf(b, formats[ev.form], ev.Name, ev.Place, ev.X, ev.Y, ev.N, ev.M)
}
