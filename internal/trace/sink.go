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

// chunkEvents is the size of the retaining sink's storage chunks: 372
// events of 88 bytes, just under the runtime's 32 KiB size class.
const chunkEvents = 372

// memory is the retaining sink of a trace built with Retain. A trace
// that has one keeps every task record too (Trace.recs).
//
// Events go into fixed chunks from the first event on, and a chunk is
// never grown, so recording copies no event it has already stored. The
// chunk list starts in first, so a trace shorter than one chunk allocates
// that chunk and nothing else. events flattens the chunks once, on read.
type memory struct {
	chunks [][]Event // in emission order; the last one is being filled
	first  [1][]Event
}

func (m *memory) Emit(ev Event) {
	n := len(m.chunks)
	if n == 0 || len(m.chunks[n-1]) == cap(m.chunks[n-1]) {
		if m.chunks == nil {
			m.chunks = m.first[:0]
		}
		m.chunks = append(m.chunks, make([]Event, 0, chunkEvents))
		n++
	}
	m.chunks[n-1] = append(m.chunks[n-1], ev)
}

func (m *memory) Close() error { return nil }

// events returns every event in emission order. It joins the chunks into
// one full chunk, so later Emits start a new chunk and never write into a
// slice it returned.
func (m *memory) events() []Event {
	switch len(m.chunks) {
	case 0:
		return nil
	case 1:
		return m.chunks[0]
	}
	total := 0
	for _, c := range m.chunks {
		total += len(c)
	}
	flat := make([]Event, 0, total)
	for _, c := range m.chunks {
		flat = append(flat, c...)
	}
	clear(m.chunks)
	m.chunks = append(m.chunks[:0], flat)
	return flat
}

// Retain asks New for a retaining trace: every event and task record
// stays in memory for Events, Records, RenderGantt, MarshalJSON and Save.
// It is a marker, not a sink: New replaces it with the trace's own store,
// and closing it does nothing.
var Retain Sink = retain{}

type retain struct{}

func (retain) Emit(Event)   {}
func (retain) Close() error { return nil }

// Tee returns a sink that emits each event to a, then to b; a nil sink
// is left out. Retain may be a: the trace then retains the events and
// also sends them to b. Closing the tee closes neither sink.
func Tee(a, b Sink) Sink {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &tee{a, b}
}

type tee struct{ a, b Sink }

func (t *tee) Emit(ev Event) {
	t.a.Emit(ev)
	t.b.Emit(ev)
}

func (t *tee) Close() error { return nil }

// JSONLSink writes one JSON object per event per line. Lines use the same
// field schema as the retained trace's "events" array.
type JSONLSink struct {
	w   *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONLSink returns a sink buffering onto w. The caller remains
// responsible for closing w itself, if it needs closing.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &JSONLSink{w: bw, enc: json.NewEncoder(bw)}
}

// Emit implements Sink.
func (s *JSONLSink) Emit(ev Event) {
	if s.err == nil {
		s.err = s.enc.Encode(ev)
	}
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
	detail  []byte
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
	s.scratch[1] = ev.Kind.String()
	s.scratch[2] = ev.TaskID
	s.detail = appendDetail(s.detail[:0], &ev)
	s.scratch[3] = string(s.detail)
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
