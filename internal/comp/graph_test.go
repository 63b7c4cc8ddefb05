package comp_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lci/internal/base"
	"lci/internal/comp"
)

// TestGraphRetryRearmAndDrainReuse: an op that keeps returning Retry is
// re-armed and re-fired by successive Drain/Test calls — the ready queue
// is reused round after round — and Drain/Test stay safe (and idempotent)
// after the graph completes.
func TestGraphRetryRearmAndDrainReuse(t *testing.T) {
	g := comp.NewGraph()
	attempts := 0
	g.AddOp(func(c base.Comp) base.Status {
		attempts++
		if attempts <= 100 { // long enough to cycle the ready queue's ring
			return base.Status{State: base.Retry}
		}
		return base.Status{State: base.Done}
	})
	g.Start()
	rounds := 0
	for !g.Test() {
		rounds++
		if rounds > 1000 {
			t.Fatal("retrying op never completed")
		}
	}
	if attempts != 101 {
		t.Fatalf("op fired %d times, want 101", attempts)
	}
	// Reuse after completion: Drain and Test are no-ops, not panics.
	for i := 0; i < 3; i++ {
		g.Drain()
		if !g.Test() {
			t.Fatal("completed graph regressed to incomplete")
		}
	}
}

// TestGraphConcurrentSignal: many posted ops signaled from several
// goroutines while another hammers Test — the dependency counters and the
// ready queue must stay race-clean (run under -race).
func TestGraphConcurrentSignal(t *testing.T) {
	const ops = 64
	g := comp.NewGraph()
	comps := make(chan base.Comp, ops)
	var fired atomic.Int64
	for i := 0; i < ops; i++ {
		id := g.AddOp(func(c base.Comp) base.Status {
			comps <- c
			return base.Status{State: base.Posted}
		})
		// Every op feeds a shared join so child firing also races.
		child := g.AddFunc(func() { fired.Add(1) })
		g.AddEdge(id, child)
	}
	g.Start()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range comps {
				c.Signal(base.Status{State: base.Done})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !g.Test() {
		}
	}()
	<-done
	close(comps)
	wg.Wait()
	if fired.Load() != ops {
		t.Fatalf("fired %d children, want %d", fired.Load(), ops)
	}
}

// TestGraphAbortCascade: a failed op node records the root cause on the
// graph and aborts its transitive dependents — their fn/op never run —
// while independent branches still execute. Test converges to true
// instead of wedging.
func TestGraphAbortCascade(t *testing.T) {
	g := comp.NewGraph()
	boom := errors.New("rendezvous timed out")
	var failComp base.Comp
	fail := g.AddOp(func(c base.Comp) base.Status {
		failComp = c
		return base.Status{State: base.Posted}
	})
	var childRan, grandRan, sideRan atomic.Bool
	child := g.AddOp(func(c base.Comp) base.Status {
		childRan.Store(true)
		return base.Status{State: base.Done}
	})
	grand := g.AddFunc(func() { grandRan.Store(true) })
	side := g.AddFunc(func() { sideRan.Store(true) })
	g.AddEdge(fail, child)
	g.AddEdge(child, grand)
	g.Start()
	failComp.Signal(base.Status{}.WithErr(boom))
	if !g.Test() {
		t.Fatal("failed graph never converged")
	}
	if !errors.Is(g.Err(), boom) {
		t.Fatalf("Err = %v, want the root cause", g.Err())
	}
	if childRan.Load() || grandRan.Load() {
		t.Fatal("aborted dependents still ran")
	}
	if !sideRan.Load() {
		t.Fatal("independent branch did not run")
	}
	if !g.Aborted(child) || !g.Aborted(grand) {
		t.Fatal("dependents not marked aborted")
	}
	if g.Aborted(fail) || g.Aborted(side) {
		t.Fatal("non-dependents marked aborted")
	}
	_ = side
}

// TestGraphJoinAbortsOnAnyFailedParent: a join node with one failed and
// one successful parent aborts, regardless of which parent performs the
// final dependency decrement.
func TestGraphJoinAbortsOnAnyFailedParent(t *testing.T) {
	boom := errors.New("peer dead")
	// Exercise both decrement orders: failure first, then success — and
	// the reverse.
	for _, failFirst := range []bool{true, false} {
		g := comp.NewGraph()
		var cFail, cOK base.Comp
		pFail := g.AddOp(func(c base.Comp) base.Status {
			cFail = c
			return base.Status{State: base.Posted}
		})
		pOK := g.AddOp(func(c base.Comp) base.Status {
			cOK = c
			return base.Status{State: base.Posted}
		})
		var joinRan atomic.Bool
		join := g.AddFunc(func() { joinRan.Store(true) })
		g.AddEdge(pFail, join)
		g.AddEdge(pOK, join)
		g.Start()
		if failFirst {
			cFail.Signal(base.Status{}.WithErr(boom))
			cOK.Signal(base.Status{})
		} else {
			cOK.Signal(base.Status{})
			cFail.Signal(base.Status{}.WithErr(boom))
		}
		if !g.Test() {
			t.Fatalf("failFirst=%v: graph never converged", failFirst)
		}
		if joinRan.Load() {
			t.Fatalf("failFirst=%v: join ran despite a failed parent", failFirst)
		}
		if !errors.Is(g.Err(), boom) {
			t.Fatalf("failFirst=%v: Err = %v", failFirst, g.Err())
		}
	}
}

// TestGraphOpFailsAtPostTime: an op returning a Done status with Err set
// (e.g. PostSend to a dead peer) fails the node immediately.
func TestGraphOpFailsAtPostTime(t *testing.T) {
	g := comp.NewGraph()
	boom := errors.New("peer dead")
	n := g.AddOp(func(c base.Comp) base.Status {
		return base.Status{State: base.Done}.WithErr(boom)
	})
	var depRan atomic.Bool
	dep := g.AddOp(func(c base.Comp) base.Status {
		depRan.Store(true)
		return base.Status{State: base.Done}
	})
	g.AddEdge(n, dep)
	g.Start()
	if !g.Test() {
		t.Fatal("graph never converged")
	}
	if !errors.Is(g.Err(), boom) || depRan.Load() || !g.Aborted(dep) {
		t.Fatalf("Err=%v depRan=%v aborted=%v", g.Err(), depRan.Load(), g.Aborted(dep))
	}
}

// TestGraphCycleGuard: Start must refuse a graph with a dependency cycle
// instead of hanging forever.
func TestGraphCycleGuard(t *testing.T) {
	g := comp.NewGraph()
	a := g.AddFunc(nil)
	b := g.AddFunc(nil)
	c := g.AddFunc(nil)
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	g.AddEdge(c, b) // cycle b -> c -> b
	defer func() {
		if recover() == nil {
			t.Fatal("Start accepted a cyclic graph")
		}
	}()
	g.Start()
}

// TestGraphUnreachableGuard: a node dangling off a cyclic region is
// unreachable from any root and must be rejected too.
func TestGraphUnreachableGuard(t *testing.T) {
	g := comp.NewGraph()
	root := g.AddFunc(nil)
	x := g.AddFunc(nil)
	y := g.AddFunc(nil)
	tail := g.AddFunc(nil)
	g.AddEdge(root, tail) // healthy chain
	g.AddEdge(x, y)
	g.AddEdge(y, x) // two-node cycle, disconnected from the root
	defer func() {
		if recover() == nil {
			t.Fatal("Start accepted an unreachable node")
		}
	}()
	g.Start()
}

// TestGraphInlineFiring: an op whose last dependency is satisfied by a
// foreign Signal is posted by the signaling goroutine, inside that
// Signal call — the owner never polls in between. The op returns Retry
// there, so it is queued, and the owner's Test re-posts it.
func TestGraphInlineFiring(t *testing.T) {
	g := comp.NewGraph()
	var parent base.Comp
	var inSignal, postedInSignal atomic.Bool
	var posts atomic.Int64
	p := g.AddOp(func(c base.Comp) base.Status {
		parent = c
		return base.Status{State: base.Posted}
	})
	ch := g.AddOp(func(c base.Comp) base.Status {
		if posts.Add(1) == 1 {
			postedInSignal.Store(inSignal.Load())
			return base.Status{State: base.Retry}
		}
		return base.Status{State: base.Done}
	})
	g.AddEdge(p, ch)
	g.Start() // posts the root from this goroutine
	if parent == nil {
		t.Fatal("root op not posted by Start")
	}
	sig := make(chan int64)
	go func() {
		inSignal.Store(true)
		parent.Signal(base.Status{State: base.Done}) // foreign goroutine
		inSignal.Store(false)
		sig <- posts.Load()
	}()
	if n := <-sig; n != 1 || !postedInSignal.Load() {
		t.Fatalf("child posted %d times before the foreign Signal returned (inside it: %v), want once, inside",
			n, postedInSignal.Load())
	}
	if !g.Test() {
		t.Fatal("Test did not re-post the retried child")
	}
	if n := posts.Load(); n != 2 {
		t.Fatalf("child posted %d times in total, want 2", n)
	}
}

// TestGraphResetPanicsUnlessFinished: Reset re-arms only a completed
// launch — never an unstarted graph, nor one with a node still in flight.
func TestGraphResetPanicsUnlessFinished(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("Reset of %s did not panic", what)
			}
		}()
		f()
	}
	g := comp.NewGraph()
	var pending base.Comp
	g.AddOp(func(c base.Comp) base.Status {
		pending = c
		return base.Status{State: base.Posted}
	})
	mustPanic("an unstarted graph", g.Reset)
	g.Start()
	mustPanic("a graph with a posted node", g.Reset)
	pending.Signal(base.Status{State: base.Done})
	if !g.Test() {
		t.Fatal("graph incomplete after its only op was signaled")
	}
	g.Reset() // finished: legal
	mustPanic("a re-armed, unstarted graph", g.Reset)

	retry := comp.NewGraph()
	retry.AddOp(func(base.Comp) base.Status { return base.Status{State: base.Retry} })
	retry.Start()
	mustPanic("a graph with a queued retry", retry.Reset)
}

// TestGraphRelaunch: one graph — a fan-out of posted ops signaled from
// several goroutines, joined through function nodes that fire on the
// signaling goroutines — relaunched 1,000 times fires every node exactly
// once per launch, and no signal of one launch leaks into the next (run
// under -race).
func TestGraphRelaunch(t *testing.T) {
	const (
		launches = 1000
		width    = 8
	)
	g := comp.NewGraph()
	comps := make(chan base.Comp, width)
	var fired [2*width + 2]atomic.Int64
	root := g.AddFunc(func() { fired[0].Add(1) })
	join := g.AddFunc(func() { fired[1].Add(1) })
	for i := 0; i < width; i++ {
		op := g.AddOp(func(c base.Comp) base.Status {
			fired[2+i].Add(1)
			if i%2 == 0 {
				return base.Status{State: base.Done} // completes at post
			}
			comps <- c
			return base.Status{State: base.Posted}
		})
		fn := g.AddFunc(func() { fired[2+width+i].Add(1) })
		g.AddEdge(root, op)
		g.AddEdge(op, fn)
		g.AddEdge(fn, join)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range comps {
				c.Signal(base.Status{State: base.Done})
			}
		}()
	}
	defer func() {
		close(comps)
		wg.Wait()
	}()
	deadline := time.Now().Add(10 * time.Second)
	for l := int64(1); l <= launches; l++ {
		g.Start()
		for !g.Test() {
			if time.Now().After(deadline) {
				t.Fatalf("launch %d never completed", l)
			}
		}
		for i := range fired {
			if n := fired[i].Load(); n != l {
				t.Fatalf("launch %d: node %d fired %d times in total, want %d", l, i, n, l)
			}
		}
		if err := g.Err(); err != nil {
			t.Fatalf("launch %d: Err = %v", l, err)
		}
		g.Reset()
	}
}

// TestGraphRelaunchAfterAbort: a launch whose op failed (aborting its
// dependents) re-arms to a clean graph: the next launch runs every node,
// aborts nothing and reports Err() == nil.
func TestGraphRelaunchAfterAbort(t *testing.T) {
	g := comp.NewGraph()
	boom := errors.New("peer died")
	var opComp base.Comp
	op := g.AddOp(func(c base.Comp) base.Status {
		opComp = c
		return base.Status{State: base.Posted}
	})
	var childRuns atomic.Int64
	child := g.AddFunc(func() { childRuns.Add(1) })
	g.AddEdge(op, child)

	g.Start()
	opComp.Signal(base.Status{}.WithErr(boom))
	if !g.Test() || !errors.Is(g.Err(), boom) || !g.Aborted(child) {
		t.Fatalf("failing launch: done=%v err=%v aborted=%v", g.Test(), g.Err(), g.Aborted(child))
	}
	g.Reset()
	if g.Err() != nil || g.Aborted(child) || g.Test() {
		t.Fatalf("after Reset: err=%v aborted=%v complete=%v, want a clean unfinished graph", g.Err(), g.Aborted(child), g.Test())
	}
	g.Start()
	opComp.Signal(base.Status{State: base.Done})
	if !g.Test() {
		t.Fatal("relaunch never completed")
	}
	if err := g.Err(); err != nil {
		t.Fatalf("relaunch after abort: Err = %v, want nil", err)
	}
	if childRuns.Load() != 1 || g.Aborted(child) {
		t.Fatalf("relaunch: child ran %d times, aborted=%v; want 1, false", childRuns.Load(), g.Aborted(child))
	}
}
