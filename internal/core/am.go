package core

import (
	"fmt"
	"sync/atomic"

	"lci/internal/base"
	"lci/internal/mpmc"
	"lci/internal/spin"
)

// This file implements first-class active messages: the per-runtime
// remote-handler table (the paper's LCI_COMPLETION_HANDLER made
// addressable from other ranks), the epoch discipline that makes
// deregistration safe against in-flight messages, and the receive-side
// allocator hook for rendezvous AM payloads.
//
// Handlers fire inside the progress engine — the poller thread invokes
// them directly between reactions, the way GASNet runs AM handlers inside
// gasnet_AMPoll. That is what makes them cheaper than queue-style remote
// completions (no status allocation, no MPMC enqueue/dequeue, no payload
// copy for eager arrivals), and it is also what constrains them:
//
//   - A handler must not block and must not spin waiting for network
//     progress: it runs under the device's poll lock, so progress on that
//     device cannot advance until it returns (concurrent Progress calls
//     lose the try-lock and return 0).
//   - A handler MAY post new operations. Posts from handler context should
//     use DisallowRetry so transient resource exhaustion diverts to the
//     device's backlog queue (drained before the next poll round) instead
//     of requiring a progress-driven retry loop that handler context
//     cannot run.
//   - Eager payloads are delivered zero-copy out of the arrived packet:
//     Status.Buffer is only valid for the duration of the call. Retaining
//     it requires a copy. Rendezvous payloads live in a buffer obtained
//     from the registered AM allocator (plain make by default): the
//     handler owns it for the duration of the call, and — unless a Free
//     hook reclaims it afterwards — may retain it.
//   - Handlers that signal a comp.Graph node fire its newly ready nodes
//     in poller context: op nodes post from inside the poll, so they
//     follow the rule above (DisallowRetry), the discipline the
//     graph-driven collectives use.

// handlerSlot is one remote-handler table entry. fn and epoch are read
// lock-free on the arrival hot path; mutations go through handlerTable.mu.
type handlerSlot struct {
	fn    atomic.Pointer[func(base.Status)]
	epoch atomic.Uint32
}

// handlerTable is the per-runtime remote-handler registry. Registration
// and deregistration are rare control-path operations under one lock;
// lookup is two loads plus an epoch compare.
type handlerTable struct {
	mu    spin.Mutex
	slots *mpmc.Array[*handlerSlot]
	free  []int // deregistered slot indices available for reuse (under mu)
}

func newHandlerTable() *handlerTable {
	return &handlerTable{slots: mpmc.NewArray[*handlerSlot](8)}
}

// register installs fn and returns its wire handle. Reused slots keep the
// epoch their deregistration bumped to, so handles minted for the previous
// occupant stay dead.
func (t *handlerTable) register(fn func(base.Status)) base.RComp {
	if fn == nil {
		panic("lci: RegisterHandler requires a non-nil function")
	}
	t.mu.Lock()
	var idx int
	var s *handlerSlot
	if n := len(t.free); n > 0 {
		idx = t.free[n-1]
		t.free = t.free[:n-1]
		s = t.slots.Get(idx)
	} else {
		s = &handlerSlot{}
		idx = t.slots.Append(s)
		if idx >= base.MaxHandlers {
			t.mu.Unlock()
			panic("lci: remote-handler table full")
		}
	}
	s.fn.Store(&fn)
	t.mu.Unlock()
	return base.MakeHandlerRComp(idx, uint8(s.epoch.Load()))
}

// deregister invalidates rc. The epoch bump happens before the function
// pointer is cleared, so a concurrent lookup that already read the old
// epoch either observes the cleared pointer or fires the still-registered
// function — the documented race window for messages already being
// delivered — while every message arriving after deregister returns fails
// the epoch compare and is dropped.
func (t *handlerTable) deregister(rc base.RComp) {
	idx := rc.HandlerIndex()
	if idx >= t.slots.Len() {
		return
	}
	s := t.slots.Get(idx)
	t.mu.Lock()
	if uint8(s.epoch.Load()) != rc.HandlerEpoch() || s.fn.Load() == nil {
		t.mu.Unlock()
		return // stale or double deregistration: nothing to do
	}
	s.epoch.Add(1)
	s.fn.Store(nil)
	t.free = append(t.free, idx)
	t.mu.Unlock()
}

// lookup resolves rc to its handler, or nil when the handle is stale,
// unknown, or not a handler handle. Lock-free arrival hot path.
func (t *handlerTable) lookup(rc base.RComp) func(base.Status) {
	if !rc.IsHandler() {
		return nil
	}
	idx := rc.HandlerIndex()
	if idx >= t.slots.Len() {
		return nil
	}
	s := t.slots.Get(idx)
	if uint8(s.epoch.Load()) != rc.HandlerEpoch() {
		return nil
	}
	fn := s.fn.Load()
	if fn == nil {
		return nil
	}
	return *fn
}

// RegisterHandler installs fn in the runtime's remote-handler table and
// returns the handle other ranks name with WithRemoteComp / PostAM. The
// handler fires inside the progress engine of whichever device the message
// arrives on; see the handler-context rules at the top of this file.
// Unlike completion-object handles, handler handles are local-only values:
// ranks must still register symmetrically (or exchange handles) for a
// handle to mean the same thing everywhere.
func (rt *Runtime) RegisterHandler(fn func(base.Status)) base.RComp {
	return rt.handlers.register(fn)
}

// DeregisterHandler invalidates a handler handle. AMs already in flight
// when it returns are dropped on arrival (epoch mismatch); an AM being
// delivered concurrently with the call may still fire the handler once.
func (rt *Runtime) DeregisterHandler(rc base.RComp) {
	rt.handlers.deregister(rc)
}

// lookupHandler resolves a handler handle (nil for non-handler handles).
func (rt *Runtime) lookupHandler(rc base.RComp) func(base.Status) {
	return rt.handlers.lookup(rc)
}

// fireAM delivers an AM or signal arrival to whatever rc names: a table
// handler (invoked inline — poller context) or a registered completion
// object (signaled). It reports whether a live target consumed st. The
// arrival device d attributes the delivery to its counter block (nil
// skips the accounting — no non-device caller exists today).
func (rt *Runtime) fireAM(d *Device, rc base.RComp, st base.Status) bool {
	counting := d != nil && d.tel.Counting()
	if rc.IsHandler() {
		if fn := rt.handlers.lookup(rc); fn != nil {
			if counting {
				d.tc.AMFires.Add(1)
			}
			fn(st)
			return true
		}
		if counting {
			d.tc.AMDrops.Add(1)
		}
		return false
	}
	if c := rt.lookupRComp(rc); c != nil {
		if counting {
			d.tc.AMSignals.Add(1)
		}
		c.Signal(st)
		return true
	}
	if counting {
		d.tc.AMDrops.Add(1)
	}
	return false
}

// AMAllocator supplies receive-side buffers for rendezvous AM payloads
// (the "registered allocator or pooled slab" of the AM rendezvous path).
// Alloc runs in the poller when an RTS-AM arrives and must return a buffer
// of at least n bytes (the delivery uses its first n). Free, when non-nil,
// is called after the destination handler returns, allowing pooled slabs
// to recycle; with a nil Free the handler owns the buffer and may retain
// it. The allocator is only consulted for handler-handle targets —
// queue-style completion objects retain their statuses indefinitely, so
// their rendezvous buffers always come from plain make.
type AMAllocator struct {
	Alloc func(n int) []byte
	Free  func(buf []byte)
}

// SetAMAllocator registers the rendezvous-AM payload allocator (nil
// restores the default plain-make behavior). Set it before traffic flows;
// swapping allocators under load is safe for Alloc/Free pairing (each
// delivery captures the allocator it allocated from) but the old allocator
// must outlive deliveries in flight.
func (rt *Runtime) SetAMAllocator(a *AMAllocator) {
	if a != nil && a.Alloc == nil {
		panic("lci: AMAllocator requires an Alloc function")
	}
	rt.amAlloc.Store(a)
}

// allocAM obtains the receive buffer for an n-byte rendezvous AM payload
// addressed to rc, returning the buffer truncated to n and the allocator
// that owns it (nil when the buffer is a plain allocation the receiver
// owns outright).
func (rt *Runtime) allocAM(n int, rc base.RComp) ([]byte, *AMAllocator) {
	if rc.IsHandler() {
		if a := rt.amAlloc.Load(); a != nil {
			buf := a.Alloc(n)
			if len(buf) < n {
				panic(fmt.Sprintf("lci: AM allocator returned %d bytes for a %d-byte payload", len(buf), n))
			}
			return buf[:n], a
		}
	}
	return make([]byte, n), nil
}
