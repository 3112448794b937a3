package flow

import (
	"testing"

	"bbwfsim/internal/sim"
)

// ended reports whether h's flow has completed or been cancelled.
func ended(n *Network, h Handle) bool { return n.flows.Live(sim.Ref(h)) == nil }

// TestCancelAfterCompletionIsNoop: cancelling a finished flow's handle
// changes nothing, and the handle reads as done at rate zero.
func TestCancelAfterCompletionIsNoop(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	r := n.NewResource("link", 100)
	h := n.StartFlow(100, []*Resource{r}, Options{}, nil, 0)
	e.Run()
	n.Cancel(h)
	if !ended(n, h) || n.Rate(h) != 0 {
		t.Errorf("finished flow: Done %v, Rate %v; want true, 0", ended(n, h), n.Rate(h))
	}
	if n.ActiveFlows() != 0 || e.Pending() != 0 {
		t.Errorf("cancel after completion left %d active flows, %d pending events", n.ActiveFlows(), e.Pending())
	}
}

// TestCancelStaleHandleSparesReissuedSlot: once a finished flow's slot is
// reissued, cancelling the old handle must leave the new flow untouched.
func TestCancelStaleHandleSparesReissuedSlot(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	r := n.NewResource("link", 100)
	old := n.StartFlow(100, []*Resource{r}, Options{}, nil, 0)
	e.Run()
	var done float64 = -1
	h := n.StartFlow(500, []*Resource{r}, Options{}, Func(func() { done = e.Now() }), 0)
	if sim.Ref(h).Index() != sim.Ref(old).Index() || h == old {
		t.Fatalf("new flow got %+v, want the old slot %d under a new generation", h, sim.Ref(old).Index())
	}
	n.Cancel(old)
	if ended(n, h) || n.ActiveFlows() != 1 {
		t.Fatalf("stale cancel ended the reissued flow (Done %v, %d active)", ended(n, h), n.ActiveFlows())
	}
	e.Run()
	if !approx(done, 6, eps) {
		t.Errorf("reissued flow completed at %v, want 6", done)
	}
}

// TestDoneOnRecycledFlow: a handle whose slot now carries another flow
// reads as done at rate zero while the new flow runs.
func TestDoneOnRecycledFlow(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	r := n.NewResource("link", 100)
	old := n.StartFlow(0, nil, Options{}, nil, 0)
	e.Run()
	h := n.StartFlow(1000, []*Resource{r}, Options{}, nil, 0)
	if sim.Ref(h).Index() != sim.Ref(old).Index() {
		t.Fatalf("new flow got slot %d, want the recycled slot %d", sim.Ref(h).Index(), sim.Ref(old).Index())
	}
	if !ended(n, old) || n.Rate(old) != 0 {
		t.Errorf("recycled handle: Done %v, Rate %v; want true, 0", ended(n, old), n.Rate(old))
	}
	if ended(n, h) || n.Rate(h) != 100 {
		t.Errorf("live flow: Done %v, Rate %v; want false, 100", ended(n, h), n.Rate(h))
	}
	var zero Handle
	if !ended(n, zero) {
		t.Error("zero Handle is not done")
	}
	n.Cancel(zero) // a no-op, like a stale handle
	if ended(n, h) {
		t.Error("cancelling the zero Handle ended a live flow")
	}
}

// TestCancelledInstantSlotReissuedBeforeItsEvent: an instantaneous flow's
// completion is queued as an event; cancelling the flow and reissuing its
// slot before the event fires must complete only the new flow.
func TestCancelledInstantSlotReissuedBeforeItsEvent(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	old := n.StartFlow(0, nil, Options{}, Func(func() { t.Error("cancelled flow's callback ran") }), 0)
	n.Cancel(old)
	calls := 0
	h := n.StartFlow(0, nil, Options{}, Func(func() { calls++ }), 0)
	if sim.Ref(h).Index() != sim.Ref(old).Index() {
		t.Fatalf("new flow got slot %d, want the recycled slot %d", sim.Ref(h).Index(), sim.Ref(old).Index())
	}
	e.Run()
	if calls != 1 || !ended(n, h) {
		t.Errorf("reissued flow completed %d times (Done %v), want once", calls, ended(n, h))
	}
}

// TestCompleterGetsTag: a completer serving several flows learns which one
// finished through the tag it started each with.
func TestCompleterGetsTag(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	r := n.NewResource("link", 100)
	var got tagLog
	n.StartFlow(300, []*Resource{r}, Options{}, &got, 7)
	n.StartFlow(100, []*Resource{r}, Options{}, &got, 9)
	e.Run()
	if len(got) != 2 || got[0] != 9 || got[1] != 7 {
		t.Errorf("completion tags %v, want [9 7]", got)
	}
}

// tagLog is a Completer that records the tags it is told.
type tagLog []uint64

func (l *tagLog) FlowDone(tag uint64) { *l = append(*l, tag) }

// Func adapts a plain callback to a Completer, ignoring the tag. Only the
// storage manager starts flows outside tests, so the adapter lives here.
type Func func()

// FlowDone implements Completer.
func (f Func) FlowDone(uint64) { f() }
