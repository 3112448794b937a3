package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"bbwfsim/internal/workflow"
)

// FuzzTraceRender checks every output of an event against an
// independent encoding: for events whose task ID, name, place and time
// are fuzzed, the JSONL line is json.Encoder's over the output schema,
// json.Marshal of the event is json.Marshal of its schema, the CSV row
// reads back through encoding/csv, and Save writes the three-pass form.
// A NaN or infinite time has no JSON form: every JSON output refuses it.
func FuzzTraceRender(f *testing.F) {
	// The strings and float forms of TestSaveMatchesThreePass: HTML
	// characters, quotes, control bytes, U+2028, invalid UTF-8, and the
	// numbers around encoding/json's 'e' form switches.
	strs := []string{"plain", "<tag>&amp;", `q"uo\te`, "ctl\x01\x1f\t\n\r\b\f", "sep\u2028\u2029",
		"bad\xff\xfeutf8\xc3", "é ü 漢", "\ufffd", ""}
	nums := []float64{0, math.Copysign(0, -1), 1, 0.1, 2.5e-7, 1e-6, 123456.789, 1e20, 1e21, 3.7e300, -42.125}
	for i := range max(len(strs), len(nums)) {
		f.Add(strs[i%len(strs)], strs[(i+1)%len(strs)], strs[(i+2)%len(strs)], nums[i%len(nums)])
	}
	f.Add("crlf\r\n", "n\r\n", "p", 1.0)
	f.Add("t", "n", "p", math.NaN())
	f.Add("t", "n", "p", math.Inf(-1))
	f.Fuzz(func(t *testing.T, task, name, place string, time float64) {
		var jsonl, rows bytes.Buffer
		lines, table := NewJSONLSink(&jsonl), NewCSVSink(&rows)
		sink := Tee(Retain, Tee(lines, table))
		// A task ID the workflow takes also gets a task record.
		wf := workflow.New(name)
		wt, err := wf.AddTask(workflow.TaskSpec{ID: task, Name: name})
		tr := New(name, place, sink)
		if err == nil {
			tr = ForWorkflow(wf, place, sink)
		}
		events := []Event{{}, Named(name), At(name, place), NodeCause(name, place), Progress(name, place, time)}
		for _, d := range events {
			kind := NodeFail
			if wt != nil {
				d.M, kind = int32(wt.Index()), TaskStart
			}
			tr.Record(time, kind, task, d)
		}
		jsonlErr, csvErr := lines.Close(), table.Close()
		if csvErr != nil {
			t.Fatal(csvErr)
		}
		path := filepath.Join(t.TempDir(), "trace.json")
		saveErr := tr.Save(path)
		if math.IsNaN(time) || math.IsInf(time, 0) {
			if _, err := json.Marshal(tr.Events()[0]); err == nil || jsonlErr == nil || saveErr == nil {
				t.Fatalf("time %v: Marshal, JSONL and Save errors %v, %v, %v; want all three", time, err, jsonlErr, saveErr)
			}
			return
		}
		if jsonlErr != nil || saveErr != nil {
			t.Fatal(jsonlErr, saveErr)
		}

		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		for _, ev := range tr.Events() {
			got, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := json.Marshal(schemaEvent(ev))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, oracle) {
				t.Fatalf("json.Marshal(event) = %s, encoding/json over the schema gives %s", got, oracle)
			}
			if err := enc.Encode(schemaEvent(ev)); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(jsonl.Bytes(), want.Bytes()) {
			t.Fatalf("JSONL lines\n%s\njson.Encoder over the schema gives\n%s", jsonl.Bytes(), want.Bytes())
		}

		read, err := csv.NewReader(&rows).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(read) != 1+len(events) {
			t.Fatalf("%d CSV rows, want a header and %d events", len(read), len(events))
		}
		for i, ev := range tr.Events() {
			// encoding/csv reads a quoted "\r\n" as "\n".
			cell := func(s string) string { return strings.ReplaceAll(s, "\r\n", "\n") }
			row := []string{strconv.FormatFloat(time, 'g', -1, 64), ev.Kind.String(), cell(task), cell(string(appendDetail(nil, &ev)))}
			if got := read[1+i]; strings.Join(got, "\x00") != strings.Join(row, "\x00") {
				t.Fatalf("CSV row %d reads back as %q, want %q", i, got, row)
			}
		}

		saved, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if oracle := threePassSave(t, tr); !bytes.Equal(saved, oracle) {
			t.Fatalf("Save wrote\n%s\nthe three-pass form is\n%s", saved, oracle)
		}
	})
}
