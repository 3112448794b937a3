package trace

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// declaredKinds returns the names of the EventKind constants trace.go
// declares, read from the source so a kind added there without an ordinal
// cannot slip past TestKindOrdinalsDistinct.
func declaredKinds(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "trace.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if id, ok := vs.Type.(*ast.Ident); ok && id.Name == "EventKind" {
				for _, n := range vs.Names {
					names = append(names, n.Name)
				}
			}
		}
	}
	return names
}

// TestKindOrdinalsDistinct: every declared event kind has its own slot in
// the per-kind count array, and Record counts each in its own slot.
func TestKindOrdinalsDistinct(t *testing.T) {
	kinds := []EventKind{
		TaskReady, TaskStart, ReadStart, ReadEnd, ComputeStart, ComputeEnd,
		WriteStart, WriteEnd, StageStart, StageEnd, TaskEnd,
		TaskFail, TaskRetry, NodeFail, NodeRepair, BBReject, Fallback,
		DegradeStart, DegradeEnd,
		CkptBegin, CkptCommit, CkptDrain, CkptLost, RestartFrom,
		AdaptSpill, AdaptReplicate, AdaptFallback,
		JobSubmit, JobReject, JobStart, JobRun, JobStageOut, JobEnd, JobFail,
	}
	if declared := declaredKinds(t); len(declared) != len(kinds) || len(kinds) != numKinds {
		t.Fatalf("trace.go declares %d kinds %v; this test lists %d and numKinds is %d",
			len(declared), declared, len(kinds), numKinds)
	}
	seen := map[int]EventKind{}
	for _, k := range kinds {
		i := k.ordinal()
		if i < 0 || i >= numKinds {
			t.Errorf("%s: ordinal %d outside [0, %d)", k, i, numKinds)
			continue
		}
		if prev, dup := seen[i]; dup {
			t.Errorf("%s and %s share ordinal %d", prev, k, i)
		}
		seen[i] = k
	}
	tr := New("wf", "plat", Discard)
	for i, k := range kinds {
		for j := 0; j <= i; j++ {
			tr.Record(float64(i), k, "t", "")
		}
	}
	for i, k := range kinds {
		if got := tr.CountKind(k); got != i+1 {
			t.Errorf("CountKind(%s) = %d, want %d", k, got, i+1)
		}
	}
	if got := tr.CountKind(EventKind("undeclared")); got != 0 {
		t.Errorf("CountKind of an undeclared kind = %d, want 0", got)
	}
}
