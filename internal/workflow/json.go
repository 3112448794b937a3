package workflow

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"bbwfsim/internal/units"
)

// jsonWorkflow is the on-disk representation, a compact WfCommons-style
// schema: files carry sizes, tasks reference files by ID.
type jsonWorkflow struct {
	Name  string     `json:"name"`
	Files []jsonFile `json:"files"`
	Tasks []jsonTask `json:"tasks"`
}

type jsonFile struct {
	ID   string `json:"id"`
	Size string `json:"size"` // e.g. "32MiB" or a bare byte count
}

type jsonTask struct {
	ID       string   `json:"id"`
	Name     string   `json:"name,omitempty"`
	Kind     string   `json:"kind,omitempty"` // "compute" (default) or "stage-in"
	Work     float64  `json:"work,omitempty"` // sequential flops
	Cores    int      `json:"cores,omitempty"`
	Memory   float64  `json:"memory,omitempty"` // peak bytes
	Alpha    float64  `json:"alpha,omitempty"`
	LambdaIO float64  `json:"lambdaIO,omitempty"`
	Inputs   []string `json:"inputs,omitempty"`
	Outputs  []string `json:"outputs,omitempty"`
}

// Parse decodes a workflow from its JSON form.
func Parse(data []byte) (*Workflow, error) {
	var jw jsonWorkflow
	if err := json.Unmarshal(data, &jw); err != nil {
		return nil, fmt.Errorf("workflow: decode: %v", err)
	}
	w := New(jw.Name)
	for _, jf := range jw.Files {
		size, err := units.ParseBytes(jf.Size)
		if err != nil {
			return nil, fmt.Errorf("workflow: file %q: %v", jf.ID, err)
		}
		if _, err := w.AddFile(jf.ID, size); err != nil {
			return nil, err
		}
	}
	for _, jt := range jw.Tasks {
		if _, err := w.AddTask(TaskSpec{
			ID:       jt.ID,
			Name:     jt.Name,
			Kind:     Kind(jt.Kind),
			Work:     units.Flops(jt.Work),
			Cores:    jt.Cores,
			Memory:   units.Bytes(jt.Memory),
			Alpha:    jt.Alpha,
			LambdaIO: jt.LambdaIO,
			Inputs:   jt.Inputs,
			Outputs:  jt.Outputs,
		}); err != nil {
			return nil, err
		}
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// Marshal encodes the workflow as indented JSON.
func Marshal(w *Workflow) ([]byte, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	jw := jsonWorkflow{Name: w.name}
	for _, f := range w.files {
		jw.Files = append(jw.Files, jsonFile{
			ID:   f.id,
			Size: strconv.FormatFloat(float64(f.size), 'g', -1, 64),
		})
	}
	for _, t := range w.tasks {
		jt := jsonTask{
			ID:       t.id,
			Name:     t.name,
			Work:     float64(t.work),
			Cores:    t.Cores(),
			Memory:   float64(t.memory),
			Alpha:    t.alpha,
			LambdaIO: t.lambdaIO,
		}
		if t.Kind() != KindCompute {
			jt.Kind = string(t.Kind())
		}
		for _, f := range t.Inputs() {
			jt.Inputs = append(jt.Inputs, f.id)
		}
		for _, f := range t.Outputs() {
			jt.Outputs = append(jt.Outputs, f.id)
		}
		jw.Tasks = append(jw.Tasks, jt)
	}
	return json.MarshalIndent(&jw, "", "  ")
}

// Load reads a workflow description file.
func Load(path string) (*Workflow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workflow: %v", err)
	}
	return Parse(data)
}
