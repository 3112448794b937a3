package trace

import "testing"

// TestKindOrdinalsDistinct: every declared event kind has its own non-empty
// name on output, and Record counts each kind in its own slot.
func TestKindOrdinalsDistinct(t *testing.T) {
	seen := map[string]EventKind{}
	for k := EventKind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" {
			t.Errorf("kind %d has no name", k)
			continue
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
	tr := New("wf", "plat", nil)
	for k := EventKind(0); k < numKinds; k++ {
		for j := EventKind(0); j <= k; j++ {
			tr.Record(float64(k), k, "t", Event{})
		}
	}
	for k := EventKind(0); k < numKinds; k++ {
		if got := tr.CountKind(k); got != int(k)+1 {
			t.Errorf("CountKind(%s) = %d, want %d", k, got, k+1)
		}
	}
}
