package trace

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
)

// Sink consumes events as they are recorded. Emit must not fail the hot
// path: implementations latch their first error internally and report it
// from Close, which also flushes any buffering. Sinks are driven from
// inside the simulation event loop, so they must not spawn goroutines or
// consult wall-clock state (the bbvet kernel-purity and determinism-taint
// rules cover this package).
type Sink interface {
	Emit(Event)
	Close() error
}

// memory is the retaining sink of a trace built without one. It also holds
// the trace's task records: a trace retains both or neither.
type memory struct {
	events  []Event
	records []*TaskRecord
}

func (m *memory) Emit(ev Event) { m.events = append(m.events, ev) }
func (m *memory) Close() error  { return nil }

// Discard is the counting sink: it drops every event, so a trace built on
// it keeps only the per-kind counts, the makespan and the folded task
// summaries. It is the sink for million-task runs and for callers that
// never look at the events.
var Discard Sink = discard{}

type discard struct{}

func (discard) Emit(Event)   {}
func (discard) Close() error { return nil }

// JSONLSink writes one JSON object per event per line. Lines use the same
// field schema as the retained trace's "events" array.
type JSONLSink struct {
	w   *bufio.Writer
	err error
}

// NewJSONLSink returns a sink buffering onto w. The caller remains
// responsible for closing w itself, if it needs closing.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriterSize(w, 1<<16)}
}

// Emit implements Sink.
func (s *JSONLSink) Emit(ev Event) {
	if s.err != nil {
		return
	}
	raw, err := json.Marshal(ev)
	if err != nil {
		s.err = err
		return
	}
	if _, err := s.w.Write(raw); err != nil {
		s.err = err
		return
	}
	s.err = s.w.WriteByte('\n')
}

// Close flushes the buffer and returns the first error Emit encountered.
func (s *JSONLSink) Close() error {
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// CSVSink writes events as "time,kind,task,detail" rows under a header.
type CSVSink struct {
	w       *csv.Writer
	wrote   bool
	err     error
	scratch [4]string
}

// NewCSVSink returns a sink writing CSV onto w.
func NewCSVSink(w io.Writer) *CSVSink {
	return &CSVSink{w: csv.NewWriter(w)}
}

// Emit implements Sink.
func (s *CSVSink) Emit(ev Event) {
	if s.err != nil {
		return
	}
	if !s.wrote {
		s.wrote = true
		s.scratch = [4]string{"time", "kind", "task", "detail"}
		if err := s.w.Write(s.scratch[:]); err != nil {
			s.err = err
			return
		}
	}
	s.scratch[0] = strconv.FormatFloat(ev.Time, 'g', -1, 64)
	s.scratch[1] = string(ev.Kind)
	s.scratch[2] = ev.TaskID
	s.scratch[3] = ev.Detail
	s.err = s.w.Write(s.scratch[:])
}

// Close flushes the writer and returns the first error encountered.
func (s *CSVSink) Close() error {
	if s.err != nil {
		return s.err
	}
	s.w.Flush()
	return s.w.Error()
}
