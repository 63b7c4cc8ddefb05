package lci_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lci"
	"lci/internal/core"
)

// postAM posts an AM with a retry loop driven by full-runtime progress.
func postAM(t *testing.T, rt *lci.Runtime, rank int, buf []byte, rc lci.RComp, opts ...lci.Option) lci.Status {
	t.Helper()
	for {
		st, err := rt.PostAM(rank, buf, rc, opts...)
		if err != nil {
			t.Fatalf("PostAM: %v", err)
		}
		if !st.IsRetry() {
			return st
		}
		rt.Progress()
	}
}

// TestAMHandlerConcurrentMultiDevice floods table handlers from several
// goroutines on a multi-device runtime while every device is progressed
// concurrently — the handler-completion hot path under -race.
func TestAMHandlerConcurrentMultiDevice(t *testing.T) {
	const ndevs = 4
	const msgsPerThread = 50
	const msgSize = 512
	w := lci.NewWorld(2, lci.WithRuntimeConfig(core.Config{NumDevices: ndevs}))
	defer w.Close()
	err := w.Launch(func(rt *lci.Runtime) error {
		peer := 1 - rt.Rank()
		var received, corrupt atomic.Int64
		// Registration order is symmetric, so the handle means the same
		// thing on both ranks.
		rc := rt.RegisterHandler(func(st lci.Status) {
			// Zero-copy delivery: the buffer is only valid during the
			// call, so verification happens right here. The tag carries
			// the payload seed.
			for i, b := range st.Buffer {
				if b != byte(i*3+st.Tag) {
					corrupt.Add(1)
					break
				}
			}
			if len(st.Buffer) != msgSize {
				corrupt.Add(1)
			}
			received.Add(1)
		})
		if err := rt.Barrier(); err != nil {
			return err
		}

		var stop atomic.Bool
		var wg sync.WaitGroup
		for ti := 0; ti < ndevs; ti++ {
			wg.Add(1)
			go func(ti int) {
				defer wg.Done()
				dev := rt.Device(ti)
				for m := 0; m < msgsPerThread; m++ {
					seed := ti*msgsPerThread + m
					buf := make([]byte, msgSize)
					for i := range buf {
						buf[i] = byte(i*3 + seed)
					}
					for {
						st, err := rt.PostAM(peer, buf, rc,
							lci.WithTag(seed), lci.WithDevice(dev))
						if err != nil {
							corrupt.Add(1)
							return
						}
						if !st.IsRetry() {
							break
						}
						dev.Progress()
					}
				}
				// Keep every device's poller busy until both ranks drain:
				// concurrent progress on all devices is the point.
				for !stop.Load() {
					dev.Progress()
				}
			}(ti)
		}
		want := int64(ndevs * msgsPerThread)
		spinUntil(t, rt, func() bool { return received.Load() == want })
		if err := rt.Barrier(); err != nil {
			return err
		}
		stop.Store(true)
		wg.Wait()
		if corrupt.Load() != 0 {
			return fmt.Errorf("rank %d: %d corrupted AM deliveries", rt.Rank(), corrupt.Load())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAMHandlerDeregisterRacesInflight deregisters a handler while AMs
// addressed to it are still in flight, then reuses the slot: in-flight
// old-generation messages must be dropped by the epoch compare and must
// never reach the slot's next occupant.
func TestAMHandlerDeregisterRacesInflight(t *testing.T) {
	const n1 = 300 // flood at the first-generation handle
	const n2 = 100 // sent to the slot's second generation
	const deregAfter = 20
	w := lci.NewWorld(2)
	defer w.Close()
	err := w.Launch(func(rt *lci.Runtime) error {
		peer := 1 - rt.Rank()
		var c1, c2 atomic.Int64
		h1 := rt.RegisterHandler(func(lci.Status) { c1.Add(1) })

		if err := rt.Barrier(); err != nil {
			return err
		}

		if rt.Rank() == 0 {
			for i := 0; i < n1; i++ {
				postAM(t, rt, peer, []byte("gen1"), h1)
			}
			if err := rt.Barrier(); err != nil {
				return err
			}
			// Mirror the peer's table evolution so the second-generation
			// handle value matches: deregister, then reuse the slot.
			rt.DeregisterRComp(h1)
			h2 := rt.RegisterHandler(func(lci.Status) {})
			if h2 == h1 {
				return fmt.Errorf("slot reuse produced an identical handle %#x", h2)
			}
			for i := 0; i < n2; i++ {
				postAM(t, rt, peer, []byte("gen2"), h2)
			}
			return rt.Barrier()
		}

		// Rank 1: progress from a second goroutine too, so deregistration
		// races poller-context lookups under -race.
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				rt.Progress()
			}
		}()
		spinUntil(t, rt, func() bool { return c1.Load() >= deregAfter })
		rt.DeregisterRComp(h1) // AMs to h1 are still in flight right now
		h2 := rt.RegisterHandler(func(lci.Status) { c2.Add(1) })
		if h2 == h1 {
			return fmt.Errorf("slot reuse produced an identical handle %#x", h2)
		}
		if err := rt.Barrier(); err != nil {
			return err
		}
		spinUntil(t, rt, func() bool { return c2.Load() == n2 })
		if err := rt.Barrier(); err != nil {
			return err
		}
		stop.Store(true)
		wg.Wait()
		if c1.Load() > n1 {
			return fmt.Errorf("first-generation handler fired %d times for %d sends", c1.Load(), n1)
		}
		if c2.Load() != n2 {
			return fmt.Errorf("second-generation handler fired %d times, want %d", c2.Load(), n2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAMRendezvousCrossDevice sends handler AMs larger than the eager
// ceiling with the posting and remote devices deliberately mismatched:
// the RTS arrives on a device the initiator never touches, and the
// rendezvous control turnaround must stay on that arrival device (the
// regression mode the rendezvous engine's startRTR path guards against).
func TestAMRendezvousCrossDevice(t *testing.T) {
	w := lci.NewWorld(2, lci.WithRuntimeConfig(core.Config{NumDevices: 2}))
	defer w.Close()
	err := w.Launch(func(rt *lci.Runtime) error {
		peer := 1 - rt.Rank()
		size := rt.MaxEager()*4 + 12345
		var delivered atomic.Bool
		var deliveredErr atomic.Pointer[string]
		rc := rt.RegisterHandler(func(st lci.Status) {
			if len(st.Buffer) != size {
				msg := fmt.Sprintf("payload size %d, want %d", len(st.Buffer), size)
				deliveredErr.Store(&msg)
			}
			for i, b := range st.Buffer {
				if b != byte(i*7+st.Rank) {
					msg := fmt.Sprintf("payload byte %d corrupted", i)
					deliveredErr.Store(&msg)
					break
				}
			}
			delivered.Store(true)
		})
		if err := rt.Barrier(); err != nil {
			return err
		}

		// Each rank posts on its own-numbered device and addresses the
		// peer's other device, so the transfer crosses devices both ways
		// at once. Both devices are progressed from separate goroutines.
		var stop atomic.Bool
		var wg sync.WaitGroup
		for d := 0; d < 2; d++ {
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				dev := rt.Device(d)
				for !stop.Load() {
					dev.Progress()
				}
			}(d)
		}
		buf := make([]byte, size)
		for i := range buf {
			buf[i] = byte(i*7 + rt.Rank())
		}
		cnt := lci.NewCounter()
		postAM(t, rt, peer, buf, rc,
			lci.WithLocalComp(cnt),
			lci.WithDevice(rt.Device(rt.Rank())),
			lci.WithRemoteDevice(1-rt.Rank()))
		spinUntil(t, rt, func() bool { return cnt.Load() == 1 && delivered.Load() })
		if err := rt.Barrier(); err != nil {
			return err
		}
		stop.Store(true)
		wg.Wait()
		if msg := deliveredErr.Load(); msg != nil {
			return fmt.Errorf("rank %d: %s", rt.Rank(), *msg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAMRendezvousAllocator routes rendezvous AM payloads through a
// registered allocator with a Free hook (the pooled-slab mode) and checks
// the ownership contract: one Alloc per delivery, Free called after the
// handler returned with the same buffer, and no allocator involvement for
// completion-object targets.
func TestAMRendezvousAllocator(t *testing.T) {
	w := lci.NewWorld(2)
	defer w.Close()
	err := w.Launch(func(rt *lci.Runtime) error {
		peer := 1 - rt.Rank()
		size := rt.MaxEager() * 3

		var allocs, frees, handlerDone atomic.Int64
		var wrongBuf, freedEarly atomic.Int64
		var lastAlloc atomic.Pointer[byte]
		rt.SetAMAllocator(&lci.AMAllocator{
			Alloc: func(n int) []byte {
				allocs.Add(1)
				buf := make([]byte, n)
				lastAlloc.Store(&buf[0])
				return buf
			},
			Free: func(buf []byte) {
				if len(buf) == 0 || lastAlloc.Load() != &buf[0] {
					wrongBuf.Add(1)
				}
				if handlerDone.Load() != allocs.Load() {
					freedEarly.Add(1) // Free must run after the handler returned
				}
				frees.Add(1)
			},
		})
		rc := rt.RegisterHandler(func(st lci.Status) {
			if len(st.Buffer) != size || st.Buffer[1] != 9 {
				wrongBuf.Add(1)
			}
			handlerDone.Add(1)
		})
		cq := lci.NewCQ()
		qrc := rt.RegisterRComp(cq)
		if err := rt.Barrier(); err != nil {
			return err
		}

		buf := make([]byte, size)
		buf[1] = 9
		if rt.Rank() == 0 {
			cnt := lci.NewCounter()
			postAM(t, rt, peer, buf, rc, lci.WithLocalComp(cnt))
			spinUntil(t, rt, func() bool { return cnt.Load() == 1 })
			// Second payload to a queue-style completion object: the
			// allocator must not be consulted (queues retain statuses).
			cnt2 := lci.NewCounter()
			postAM(t, rt, peer, buf, qrc, lci.WithLocalComp(cnt2))
			spinUntil(t, rt, func() bool { return cnt2.Load() == 1 })
			return rt.Barrier()
		}

		spinUntil(t, rt, func() bool { return handlerDone.Load() == 1 && frees.Load() == 1 })
		var got lci.Status
		spinUntil(t, rt, func() bool {
			var ok bool
			got, ok = cq.Pop()
			return ok
		})
		if err := rt.Barrier(); err != nil {
			return err
		}
		if allocs.Load() != 1 {
			return fmt.Errorf("allocator consulted %d times, want 1 (comp targets must bypass it)", allocs.Load())
		}
		if wrongBuf.Load() != 0 || freedEarly.Load() != 0 {
			return fmt.Errorf("allocator contract violated: wrongBuf=%d freedEarly=%d",
				wrongBuf.Load(), freedEarly.Load())
		}
		if len(got.Buffer) != size || got.Buffer[1] != 9 {
			return fmt.Errorf("queue-target rendezvous payload corrupted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAMGraphInterop wires an AM arrival into a completion graph: the
// poller signals an op node from handler-delivery context, and the
// newly-ready child op posts the reply AM right there, inside the
// progress call, with WithNoRetry so a transient failure parks on the
// backlog instead of needing a retry loop — the discipline the
// graph-driven collectives use, reachable from user AMs.
func TestAMGraphInterop(t *testing.T) {
	w := lci.NewWorld(2)
	defer w.Close()
	err := w.Launch(func(rt *lci.Runtime) error {
		peer := 1 - rt.Rank()
		var replies atomic.Int64
		replyH := rt.RegisterHandler(func(st lci.Status) {
			if !bytes.Equal(st.Buffer, []byte("graph-reply")) {
				replies.Store(-1000)
				return
			}
			replies.Add(1)
		})
		if err := rt.Barrier(); err != nil {
			return err
		}

		if rt.Rank() == 0 {
			// Learn the peer's graph-node handle, poke the node with an
			// AM, and wait for the reply its child op posts.
			hbuf := make([]byte, 8)
			cq := lci.NewCQ()
			st, err := rt.PostRecv(peer, hbuf, 77, cq)
			if err != nil {
				return err
			}
			if !st.IsDone() {
				spinUntil(t, rt, func() bool {
					var ok bool
					st, ok = cq.Pop()
					return ok
				})
			}
			target := lci.RComp(binary.LittleEndian.Uint64(hbuf))
			postAM(t, rt, peer, []byte("wake the graph"), target)
			spinUntil(t, rt, func() bool { return replies.Load() == 1 })
			return rt.Barrier()
		}

		// Rank 1: node A waits for the AM (its Comp is the registered
		// remote target, signaled from poller context); node B replies,
		// posted by the poller that signals A.
		g := lci.NewGraph()
		var inProgress, postedInProgress atomic.Bool
		var target lci.RComp
		a := g.AddOp(func(c lci.Comp) lci.Status {
			target = rt.RegisterRComp(c)
			return lci.Status{State: lci.Posted}
		})
		b := g.AddOp(func(c lci.Comp) lci.Status {
			postedInProgress.Store(inProgress.Load())
			st, err := rt.PostAM(peer, []byte("graph-reply"), replyH, lci.WithLocalComp(c), lci.WithNoRetry())
			if err != nil {
				t.Errorf("reply PostAM: %v", err)
				return lci.Status{State: lci.Done}
			}
			return st
		})
		g.AddEdge(a, b)
		g.Start() // fires A: registers the node as the AM target

		hbuf := make([]byte, 8)
		binary.LittleEndian.PutUint64(hbuf, uint64(target))
		hcnt := lci.NewCounter()
		st, err := rt.PostSend(peer, hbuf, 77, hcnt)
		if err != nil {
			return err
		}
		for st.IsRetry() {
			rt.Progress()
			st, err = rt.PostSend(peer, hbuf, 77, hcnt)
			if err != nil {
				return err
			}
		}
		deadlineSpin(t, func() bool {
			inProgress.Store(true)
			rt.Progress()
			inProgress.Store(false)
			return g.Test()
		})
		if !postedInProgress.Load() {
			t.Error("reply op was not posted from the poller that signaled its parent")
		}
		if err := rt.Barrier(); err != nil {
			return err
		}
		rt.DeregisterRComp(target)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRegisterRCompUnified exercises the unified registration entry point:
// plain functions and lci.Handler values land in the remote-handler table,
// completion objects land in the completion registry, and both kinds
// deliver AMs and deregister through the same calls.
func TestRegisterRCompUnified(t *testing.T) {
	w := lci.NewWorld(2)
	defer w.Close()
	err := w.Launch(func(rt *lci.Runtime) error {
		peer := 1 - rt.Rank()
		var viaFunc, viaHandler atomic.Int64
		rcFunc := rt.RegisterRComp(func(st lci.Status) { viaFunc.Add(1) })
		rcHandler := rt.RegisterRComp(lci.Handler(func(st lci.Status) { viaHandler.Add(1) }))
		cq := lci.NewCQ()
		rcQueue := rt.RegisterRComp(cq)
		if rcFunc == rcQueue || rcHandler == rcQueue || rcFunc == rcHandler {
			return fmt.Errorf("handle collision: func=%#x handler=%#x queue=%#x",
				rcFunc, rcHandler, rcQueue)
		}
		if err := rt.Barrier(); err != nil {
			return err
		}

		if rt.Rank() == 0 {
			postAM(t, rt, peer, []byte("to func"), rcFunc)
			postAM(t, rt, peer, []byte("to handler"), rcHandler)
			postAM(t, rt, peer, []byte("to queue"), rcQueue)
			return rt.Barrier()
		}
		queueGot := false
		spinUntil(t, rt, func() bool {
			if _, ok := cq.Pop(); ok {
				queueGot = true
			}
			return queueGot && viaFunc.Load() == 1 && viaHandler.Load() == 1
		})
		if err := rt.Barrier(); err != nil {
			return err
		}
		rt.DeregisterRComp(rcFunc)
		rt.DeregisterRComp(rcHandler)
		rt.DeregisterRComp(rcQueue)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Invalid registration targets panic loudly instead of minting a
	// handle that no arrival path could ever resolve.
	w2 := lci.NewWorld(1)
	defer w2.Close()
	rt, err := w2.NewRuntime(0)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for _, tc := range []struct {
		name   string
		target any
	}{
		{"nil", nil},
		{"unsupported", 42},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RegisterRComp(%s) did not panic", tc.name)
				}
			}()
			rt.RegisterRComp(tc.target)
		}()
	}
}

// deadlineSpin loops pred (which must make its own progress) with the
// same timeout discipline as spinUntil, for loops that are not shaped
// around a single runtime's Progress call.
func deadlineSpin(t *testing.T, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for completion")
		}
	}
}
