package exec

import (
	"fmt"
	"slices"
	"sort"

	"bbwfsim/internal/platform"
	"bbwfsim/internal/workflow"
)

// NodePolicy selects which node a ready task runs on.
type NodePolicy int

const (
	// NodeFirstFit scans nodes in index order and takes the first with
	// enough free cores (the default; deterministic and cache-friendly
	// for single-node experiments).
	NodeFirstFit NodePolicy = iota
	// NodeLeastLoaded picks the fitting node with the most free cores,
	// spreading work — and, on on-node-BB platforms, spreading burst
	// buffer traffic.
	NodeLeastLoaded
	// NodeRoundRobin rotates across nodes, falling back to the next
	// fitting node when the preferred one is full.
	NodeRoundRobin
)

// OrderPolicy orders the ready queue.
type OrderPolicy int

const (
	// OrderFIFO runs ready tasks in workflow insertion order (default).
	OrderFIFO OrderPolicy = iota
	// OrderLargestWork runs the most compute-heavy ready task first.
	OrderLargestWork
	// OrderCriticalPath runs tasks by descending upward rank (the task's
	// sequential compute time plus the longest chain of descendants),
	// the classic HEFT-style list-scheduling priority.
	OrderCriticalPath
)

// ParseNodePolicy maps a node-policy name to its NodePolicy; "" names the
// default, first-fit.
func ParseNodePolicy(s string) (NodePolicy, error) {
	switch s {
	case "", "first-fit":
		return NodeFirstFit, nil
	case "least-loaded":
		return NodeLeastLoaded, nil
	case "round-robin":
		return NodeRoundRobin, nil
	}
	return 0, fmt.Errorf("unknown node policy %q", s)
}

// ParseOrderPolicy maps an order-policy name to its OrderPolicy; "" names
// the default, fifo.
func ParseOrderPolicy(s string) (OrderPolicy, error) {
	switch s {
	case "", "fifo":
		return OrderFIFO, nil
	case "largest-work":
		return OrderLargestWork, nil
	case "critical-path":
		return OrderCriticalPath, nil
	}
	return 0, fmt.Errorf("unknown order policy %q", s)
}

// scheduler bundles the two policies and their state.
type scheduler struct {
	nodePolicy  NodePolicy
	orderPolicy OrderPolicy
	tasks       []*workflow.Task // the workflow's tasks, by Task.Index
	rank        []float64        // upward ranks for OrderCriticalPath, by Task.Index
	rrNext      int              // round-robin cursor
}

// newScheduler precomputes whatever the policies need.
func newScheduler(nodePolicy NodePolicy, orderPolicy OrderPolicy, wf *workflow.Workflow, speed float64) (*scheduler, error) {
	s := &scheduler{nodePolicy: nodePolicy, orderPolicy: orderPolicy, tasks: wf.Tasks()}
	if orderPolicy == OrderCriticalPath {
		order, err := wf.TopologicalOrder()
		if err != nil {
			return nil, err
		}
		s.rank = make([]float64, len(order))
		// Walk in reverse topological order: rank(t) = w(t) + max child.
		for i := len(order) - 1; i >= 0; i-- {
			t := order[i]
			best := 0.0
			for _, c := range t.Children() {
				if s.rank[c.Index()] > best {
					best = s.rank[c.Index()]
				}
			}
			s.rank[t.Index()] = float64(t.Work())/speed + best
		}
	}
	return s, nil
}

// less orders the ready queue; ties always break by insertion index so
// every policy stays deterministic.
func (s *scheduler) less(a, b *workflow.Task) bool {
	switch s.orderPolicy {
	case OrderLargestWork:
		//bbvet:allow float-compare -- comparator tie-break: exact equality detects ties, which then break by insertion index; a tolerance would itself be order-dependent
		if a.Work() != b.Work() {
			return a.Work() > b.Work()
		}
	case OrderCriticalPath:
		//bbvet:allow float-compare -- comparator tie-break: exact equality detects ties, which then break by insertion index
		if ra, rb := s.rank[a.Index()], s.rank[b.Index()]; ra != rb {
			return ra > rb
		}
	}
	return a.Index() < b.Index()
}

// insert places t into the ready queue, a list of task indices, at its
// policy position.
func (s *scheduler) insert(ready []int32, t *workflow.Task) []int32 {
	i := sort.Search(len(ready), func(i int) bool { return s.less(t, s.tasks[ready[i]]) })
	return slices.Insert(ready, i, int32(t.Index()))
}

// pick selects a node with enough free cores and memory for t, or nil.
func (s *scheduler) pick(t *workflow.Task, nodes []*platform.Node, need func(*workflow.Task, *platform.Node) int) (*platform.Node, int) {
	fits := func(n *platform.Node) (int, bool) {
		c := need(t, n)
		return c, n.HasResources(c, t.Memory())
	}
	switch s.nodePolicy {
	case NodeLeastLoaded:
		var best *platform.Node
		bestCores := 0
		for _, n := range nodes {
			if c, ok := fits(n); ok && (best == nil || n.FreeCores() > best.FreeCores()) {
				best, bestCores = n, c
			}
		}
		return best, bestCores
	case NodeRoundRobin:
		for i := 0; i < len(nodes); i++ {
			n := nodes[(s.rrNext+i)%len(nodes)]
			if c, ok := fits(n); ok {
				s.rrNext = (s.rrNext + i + 1) % len(nodes)
				return n, c
			}
		}
		return nil, 0
	default: // NodeFirstFit
		for _, n := range nodes {
			if c, ok := fits(n); ok {
				return n, c
			}
		}
		return nil, 0
	}
}
