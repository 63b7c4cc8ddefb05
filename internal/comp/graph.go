package comp

import (
	"sync/atomic"

	"lci/internal/base"
	"lci/internal/mpmc"
	"lci/internal/spin"
)

// Graph is the completion graph (§4.2.6): a DAG of operations with a
// partial execution order, conceptually similar to CUDA Graphs. If node u
// precedes node v, v starts only after u completes. Nodes are either plain
// functions (complete when they return) or communication operations
// (complete when their completion object is signaled; a Retry outcome
// re-arms the node and it is re-fired from Test/Drain).
//
// Every node tracks its remaining-parent count with an atomic counter
// (§5.1.4); a node whose count reaches zero is fired immediately by
// whichever thread performed the final decrement — an op node posts from
// inside that thread's Signal, so op closures must be safe to run on any
// thread that signals the graph (a progress poller included).
//
// Like a CUDA graph, a Graph is built once and may be launched many
// times: Reset re-arms a completed graph for another Start. The first
// Start validates and freezes the DAG; later launches skip both.
type Graph struct {
	buildMu spin.Mutex
	nodes   []*graphNode
	roots   []*graphNode // nodes with no predecessors, fixed by the first Start
	frozen  atomic.Bool  // set by the first Start: the DAG can no longer change
	started atomic.Bool  // set by Start, cleared by Reset
	pending atomic.Int64 // nodes not yet complete
	// ready holds op nodes whose operations returned Retry, awaiting
	// re-posting by the next Test or Drain.
	ready *mpmc.Queue[*graphNode]
	// err latches the first node failure. Once set, dependents of the
	// failed node complete as aborted instead of firing, so Test still
	// converges to true and Err reports the root cause.
	err atomic.Pointer[error]
}

// NodeID names a node within its graph.
type NodeID int

type graphNode struct {
	g        *Graph
	id       NodeID
	fn       func()                        // plain function node (nil for op nodes)
	op       func(c base.Comp) base.Status // op node poster
	deps     atomic.Int32
	initDeps int32
	children []NodeID
	done     atomic.Bool
	// aborted is set by a failing (or aborted) parent before it performs
	// the dependency decrement; whichever parent performs the FINAL
	// decrement then observes it and completes the node as aborted
	// instead of firing it.
	aborted atomic.Bool
}

// Signal implements base.Comp for op nodes: the runtime signals the node
// when its posted communication completes. An error status fails the
// node, which aborts its dependents instead of firing them.
func (n *graphNode) Signal(st base.Status) {
	if st.Failed() {
		n.g.fail(n, st.Err())
		return
	}
	n.g.complete(n)
}

// NewGraph returns an empty completion graph.
func NewGraph() *Graph {
	return &Graph{ready: mpmc.NewQueue[*graphNode](64)}
}

// AddFunc adds a node that completes when f returns. f may be nil (an
// empty node, useful as a join point).
func (g *Graph) AddFunc(f func()) NodeID {
	return g.add(&graphNode{fn: f})
}

// AddOp adds a communication node. post must initiate the operation using
// the supplied completion object and return the posting status:
//
//   - Done: the node completes immediately;
//   - Posted: the node completes when the completion object is signaled;
//   - Retry: the node is re-armed; the next Test or Drain call re-fires it.
func (g *Graph) AddOp(post func(c base.Comp) base.Status) NodeID {
	return g.add(&graphNode{op: post})
}

func (g *Graph) add(n *graphNode) NodeID {
	if g.frozen.Load() {
		panic("comp: Graph mutated after Start")
	}
	g.buildMu.Lock()
	n.g = g
	n.id = NodeID(len(g.nodes))
	g.nodes = append(g.nodes, n)
	g.buildMu.Unlock()
	g.pending.Add(1)
	return n.id
}

// AddEdge declares that node u must complete before node v starts.
func (g *Graph) AddEdge(u, v NodeID) {
	if g.frozen.Load() {
		panic("comp: Graph mutated after Start")
	}
	g.buildMu.Lock()
	g.nodes[u].children = append(g.nodes[u].children, v)
	g.nodes[v].initDeps++
	g.nodes[v].deps.Add(1)
	g.buildMu.Unlock()
}

// Start fires all root nodes (nodes with no predecessors). It may be
// called once per launch (see Reset). The first Start validates the
// graph: a dependency cycle (or a node only reachable through one) would
// leave the graph permanently incomplete, so it panics instead — a
// build-time programming mistake, like mutating the graph after Start.
// The DAG is frozen from then on, so relaunches skip the check.
func (g *Graph) Start() {
	if g.started.Swap(true) {
		panic("comp: Graph started twice")
	}
	if !g.frozen.Load() {
		g.validate()
		g.frozen.Store(true)
	}
	for _, n := range g.roots {
		g.fire(n)
	}
}

// Reset re-arms a completed graph for another Start: every node's
// dependency count is restored, its done and aborted flags are cleared,
// and the pending count and the latched error are reset. It panics
// unless the graph was started, every node is done and the ready queue
// is empty.
//
// Once pending reads zero no completion can still touch the graph's
// nodes: each node is signaled at most once per launch, by the operation
// its own post started; finish decrements pending before it releases
// the node's children, and a child cannot finish before all its parents
// have released it. So when pending reads zero every release loop has
// made its last dependency decrement, and every node it fired has
// finished. The caller must own the graph (no concurrent Test or Drain)
// while it resets.
func (g *Graph) Reset() {
	if !g.started.Load() {
		panic("comp: Reset of a graph that was not started")
	}
	if g.pending.Load() != 0 || g.ready.Len() != 0 {
		panic("comp: Reset of an unfinished graph")
	}
	for _, n := range g.nodes {
		n.deps.Store(n.initDeps)
		n.done.Store(false)
		n.aborted.Store(false)
	}
	g.pending.Store(int64(len(g.nodes)))
	g.err.Store(nil)
	g.started.Store(false)
}

// validate runs Kahn's algorithm over the declared edges: every node must
// be reachable from a root through acyclic dependencies.
func (g *Graph) validate() {
	indeg := make([]int32, len(g.nodes))
	queue := make([]NodeID, 0, len(g.nodes))
	for i, n := range g.nodes {
		indeg[i] = n.initDeps
		if n.initDeps == 0 {
			queue = append(queue, NodeID(i))
		}
	}
	for _, id := range queue {
		g.roots = append(g.roots, g.nodes[id])
	}
	seen := 0
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, v := range g.nodes[u].children {
			if indeg[v]--; indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if seen != len(g.nodes) {
		panic("comp: Graph has unreachable nodes (dependency cycle)")
	}
}

// fire runs a node whose dependencies are satisfied, on the calling
// thread: a function node runs and completes, an op node posts.
func (g *Graph) fire(n *graphNode) {
	if n.op == nil { // function node, or an empty join node
		if n.fn != nil {
			n.fn()
		}
		g.complete(n)
		return
	}
	st := n.op(n)
	switch {
	case st.Failed() && !st.IsRetry():
		g.fail(n, st.Err())
	case st.IsDone():
		g.complete(n)
	case st.IsRetry():
		g.ready.Enqueue(n)
	default:
		// posted: completion arrives via Signal
	}
}

func (g *Graph) complete(n *graphNode) { g.finish(n, false) }

// fail completes a node unsuccessfully: the first failure is latched on
// the graph (Err) and the node's dependents are aborted rather than
// fired, cascading down so Test converges instead of wedging.
func (g *Graph) fail(n *graphNode, err error) {
	g.err.CompareAndSwap(nil, &err)
	g.finish(n, true)
}

// finish marks n complete and releases its children. When n failed or
// was aborted, each child is flagged aborted BEFORE the dependency
// decrement: the flag store and the decrement are both sequentially
// consistent atomics, so whichever parent performs the final decrement —
// even a successful one — observes the flag and aborts the child.
func (g *Graph) finish(n *graphNode, abortChildren bool) {
	if n.done.Swap(true) {
		panic("comp: graph node completed twice")
	}
	g.pending.Add(-1)
	for _, c := range n.children {
		child := g.nodes[c]
		if abortChildren {
			child.aborted.Store(true)
		}
		if child.deps.Add(-1) == 0 {
			if child.aborted.Load() {
				g.finish(child, true) // never fires: fn/op do not run
			} else {
				g.fire(child)
			}
		}
	}
}

// Err returns the first error recorded by a failed node, or nil. A graph
// whose Test reports true with a non-nil Err completed by aborting the
// failed node's dependents; their operations never ran.
func (g *Graph) Err() error {
	if p := g.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Aborted reports whether the node was aborted because an upstream
// dependency failed.
func (g *Graph) Aborted(id NodeID) bool {
	g.buildMu.Lock()
	n := g.nodes[id]
	g.buildMu.Unlock()
	return n.aborted.Load()
}

// Drain re-posts the op nodes whose operations returned Retry. Call it
// from the application's progress loop; it is safe to call at any time,
// including after the graph has completed.
//
// One call makes at most one pass over the nodes queued at entry: an op
// that returns Retry again is re-queued for the NEXT call instead of
// being re-posted in a tight loop — a Retry typically clears only after
// the caller's progress loop runs (recycled packets, drained transmit
// queues), which can't happen while Drain spins.
func (g *Graph) Drain() {
	for i := g.ready.Len(); i > 0; i-- {
		n, ok := g.ready.Dequeue()
		if !ok {
			return
		}
		g.fire(n)
	}
}

// Test drains retries and reports whether every node has completed.
func (g *Graph) Test() bool {
	g.Drain()
	return g.pending.Load() == 0
}

// Len returns the number of nodes.
func (g *Graph) Len() int {
	g.buildMu.Lock()
	defer g.buildMu.Unlock()
	return len(g.nodes)
}

var _ base.Comp = (*graphNode)(nil)
