package coll_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"lci"
	"lci/internal/bench"
	"lci/internal/coll"
	"lci/internal/core"
	"lci/internal/fault"
)

// outCall is one outstanding call of TestCollRelaunchOutstanding and the
// check of its result against the reference.
type outCall struct {
	seq   int
	h     *lci.Coll
	check func() error
}

// relaunchSizes are the message sizes the relaunch test cycles through:
// inject, eager and rendezvous payloads, all whole int64 elements, so one
// instance sees its round scratch grow and shrink between calls.
var relaunchSizes = []int{8, 24, 1000, 8, 9000, 64, 4096, 16}

// issueCall issues call i of kind on rt with a root and size that vary
// with i (the same on every rank), and returns its handle and the check
// of its result. A non-empty forced algorithm is used for every call;
// otherwise the algorithm varies with i too.
func issueCall(rt *lci.Runtime, kind lci.CollKind, i int, forced string) (*lci.Coll, func() error, error) {
	n, me := rt.NumRanks(), rt.Rank()
	root := (i * 3) % n
	size := relaunchSizes[(i*5)%len(relaunchSizes)]
	elems := size / 8
	pick := func(algs ...string) []lci.Option {
		if forced != "" {
			return []lci.Option{lci.WithCollAlgorithm(forced)}
		}
		if alg := algs[i%len(algs)]; alg != "" {
			return []lci.Option{lci.WithCollAlgorithm(alg)}
		}
		return nil
	}
	// contribution is rank r's element e of call i; sum is its reference.
	contribution := func(r, e int) int64 { return int64((r+1)*(i+1)*(e+3) - e) }
	sum := func() []byte {
		vals := make([]int64, elems)
		for e := range vals {
			for r := 0; r < n; r++ {
				vals[e] += contribution(r, e)
			}
		}
		return i64buf(vals...)
	}
	mine := func() []byte {
		vals := make([]int64, elems)
		for e := range vals {
			vals[e] = contribution(me, e)
		}
		return i64buf(vals...)
	}
	mismatch := func(what string) error {
		return fmt.Errorf("rank %d %v call %d (root %d, %d B): %s mismatch", me, kind, i, root, size, what)
	}
	switch kind {
	case lci.KindBarrier:
		h, err := rt.IBarrier()
		return h, func() error { return nil }, err
	case lci.KindBcast:
		want := make([]byte, size)
		fillPattern(want, i)
		buf := make([]byte, size)
		if me == root {
			copy(buf, want)
		}
		h, err := rt.IBcast(buf, root, pick("", lci.CollFlat, lci.CollBinomial)...)
		return h, func() error {
			if !bytes.Equal(buf, want) {
				return mismatch("payload")
			}
			return nil
		}, err
	case lci.KindReduce:
		// Non-root ranks alternate between passing no receive buffer
		// (the instance's own accumulator) and a scratch one.
		var recv []byte
		if me == root || i%2 == 1 {
			recv = make([]byte, size)
		}
		h, err := rt.IReduce(mine(), recv, lci.Int64, lci.OpSum, root, pick("", lci.CollFlat, lci.CollBinomial)...)
		return h, func() error {
			if me == root && !bytes.Equal(recv, sum()) {
				return mismatch("reduction")
			}
			return nil
		}, err
	case lci.KindAllreduce:
		recv := make([]byte, size)
		h, err := rt.IAllreduce(mine(), recv, lci.Int64, lci.OpSum, pick("", lci.CollRDouble, lci.CollReduceBcast)...)
		return h, func() error {
			if !bytes.Equal(recv, sum()) {
				return mismatch("reduction")
			}
			return nil
		}, err
	default:
		send := make([]byte, size)
		fillPattern(send, i*n+me)
		recv := make([]byte, n*size)
		h, err := rt.IAllgather(send, recv, pick("", lci.CollFlat, lci.CollRing)...)
		return h, func() error {
			want := make([]byte, size)
			for r := 0; r < n; r++ {
				fillPattern(want, i*n+r)
				if !bytes.Equal(recv[r*size:(r+1)*size], want) {
					return mismatch(fmt.Sprintf("block %d", r))
				}
			}
			return nil
		}, err
	}
}

// Outstanding-call schedule of the relaunch tests.
const (
	outCalls  = 300 // > 2 × the 128-epoch tag window
	outMax    = 31  // most handles outstanding at once
	outAgeCap = 32  // age cap: calls this old must be finished first
)

// driveOutstanding issues outCalls calls of kind on rt (algorithm forced
// when alg is non-empty), keeping up to outMax handles outstanding and
// testing them in a fresh random order each round. Every result is
// checked against its reference when its handle completes — after its
// instance may already be serving a later call.
func driveOutstanding(rt *lci.Runtime, rng *rand.Rand, kind lci.CollKind, alg string) error {
	var out []outCall
	peak := 0
	// poll tests the outstanding handles until ready holds, checking
	// every finished call.
	poll := func(ready func() bool) error {
		deadline := time.Now().Add(60 * time.Second)
		for !ready() {
			if time.Now().After(deadline) {
				return fmt.Errorf("rank %d %v %q: %d calls still outstanding after 60 s", rt.Rank(), kind, alg, len(out))
			}
			if rt.Progress() == 0 {
				runtime.Gosched() // several ranks share few cores
			}
			rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
			kept := out[:0]
			for _, c := range out {
				if !c.h.Test() {
					kept = append(kept, c)
					continue
				}
				if err := c.h.Err(); err != nil {
					return fmt.Errorf("rank %d %v %q call %d: %w", rt.Rank(), kind, alg, c.seq, err)
				}
				if err := c.check(); err != nil {
					return err
				}
			}
			out = kept
		}
		return nil
	}
	for i := 0; i < outCalls; i++ {
		err := poll(func() bool {
			if len(out) >= outMax {
				return false
			}
			for _, c := range out {
				if c.seq <= i-outAgeCap {
					return false
				}
			}
			return true
		})
		if err != nil {
			return err
		}
		h, check, err := issueCall(rt, kind, i, alg)
		if err == nil {
			err = h.Start()
		}
		if err != nil {
			return fmt.Errorf("rank %d %v %q call %d: %w", rt.Rank(), kind, alg, i, err)
		}
		out = append(out, outCall{seq: i, h: h, check: check})
		peak = max(peak, len(out))
	}
	if err := poll(func() bool { return len(out) == 0 }); err != nil {
		return err
	}
	if peak != outMax {
		return fmt.Errorf("rank %d %v %q: peak of %d outstanding handles, want %d", rt.Rank(), kind, alg, peak, outMax)
	}
	return nil
}

// TestCollRelaunchOutstanding drives every kind through more than two
// epoch windows of relaunched instances on 4 ranks: roots, sizes and
// algorithms vary per call, and up to 31 handles are outstanding at once
// (the age cap's limit), each rank testing its handles in its own
// shuffled order.
func TestCollRelaunchOutstanding(t *testing.T) {
	w := leanWorld(4)
	defer w.Close()
	err := w.Launch(func(rt *lci.Runtime) error {
		rng := rand.New(rand.NewPCG(uint64(rt.Rank()), 12))
		for _, kind := range []lci.CollKind{lci.KindBarrier, lci.KindBcast, lci.KindReduce, lci.KindAllreduce, lci.KindAllgather} {
			if err := driveOutstanding(rt, rng, kind, ""); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollSelfSyncWindowOutstanding: allreduce and allgather carry no
// resync-barrier prefix — finishing a call of theirs proves every rank
// built it, which the age cap turns into the tag-reuse guarantee. Each
// algorithm of each, on 3 and 4 ranks, crosses the 128-epoch window
// twice with up to 31 handles outstanding and tested out of order.
func TestCollSelfSyncWindowOutstanding(t *testing.T) {
	for _, ranks := range []int{3, 4} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			w := leanWorld(ranks)
			defer w.Close()
			err := w.Launch(func(rt *lci.Runtime) error {
				rng := rand.New(rand.NewPCG(uint64(rt.Rank()), uint64(ranks)))
				runs := []struct {
					kind lci.CollKind
					alg  string
				}{
					{lci.KindAllreduce, lci.CollReduceBcast},
					{lci.KindAllreduce, lci.CollRDouble},
					{lci.KindAllgather, lci.CollFlat},
					{lci.KindAllgather, lci.CollRing},
				}
				for _, r := range runs {
					if r.alg == lci.CollRDouble && ranks&(ranks-1) != 0 {
						continue // recursive doubling needs a power-of-two rank count
					}
					if err := driveOutstanding(rt, rng, r.kind, r.alg); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCollResyncOnlyForBcastReduce: past the resync interval, only
// broadcast and reduce have built a resync-barrier-prefixed shape; the
// self-synchronizing kinds never do.
func TestCollResyncOnlyForBcastReduce(t *testing.T) {
	const calls = 70 // two resync intervals
	_, comms := newFaultComms(t, 2, nil)
	errs := make(chan error, len(comms))
	for r, c := range comms {
		go func() {
			errs <- func() error {
				buf := i64buf(int64(r))
				recv := make([]byte, 8)
				all := make([]byte, 16)
				for i := 0; i < calls; i++ {
					for _, call := range []func() error{
						func() error { return c.Barrier(core.Options{}) },
						func() error { return c.Broadcast(buf, 0, core.Options{}) },
						func() error { return c.Reduce(buf, recv, coll.Int64, coll.Sum, 0, core.Options{}) },
						func() error { return c.Allreduce(buf, recv, coll.Int64, coll.Sum, core.Options{}) },
						func() error { return c.Allgather(buf, all, core.Options{}) },
					} {
						if err := call(); err != nil {
							return fmt.Errorf("rank %d call %d: %w", r, i, err)
						}
					}
					h, err := c.IBarrier(core.Options{})
					if err == nil {
						err = h.Wait()
					}
					if err != nil {
						return fmt.Errorf("rank %d IBarrier %d: %w", r, i, err)
					}
				}
				return nil
			}()
		}()
	}
	for range comms {
		if err := watchdog(t, "resync sweep", func() error { return <-errs }); err != nil {
			t.Fatal(err)
		}
	}
	for r, c := range comms {
		for _, kind := range []coll.Kind{coll.KindBarrier, coll.KindBcast, coll.KindReduce, coll.KindAllreduce, coll.KindAllgather} {
			n := coll.IdleResyncInstances(c, kind)
			if want := kind == coll.KindBcast || kind == coll.KindReduce; (n > 0) != want {
				t.Errorf("rank %d %v: %d idle resync-prefixed instances, want any: %v", r, kind, n, want)
			}
		}
	}
}

// TestCollPoisonedHandleKeepsErr: a handle keeps its call's outcome after
// its instance has been relaunched. The first allreduce fails through
// the graph (its parked receive is swept when the peer dies mid-flight);
// the second, on the now-poisoned comm, relaunches the same instance.
func TestCollPoisonedHandleKeepsErr(t *testing.T) {
	inj := fault.New(25, 2)
	_, comms := newFaultComms(t, 2, inj)

	var in, out [8]byte
	h1, err := comms[0].IAllreduce(in[:], out[:], coll.Int64, coll.Sum, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h1.Start(); err != nil {
		t.Fatal(err)
	}
	inj.KillRank(1)
	err1 := watchdog(t, "first IAllreduce.Wait", h1.Wait)
	if err1 == nil {
		t.Fatal("first allreduce returned nil after peer death")
	}
	if n := coll.IdleInstances(comms[0]); n != 1 {
		t.Fatalf("%d idle instances after one finished call, want 1", n)
	}

	h2, err := comms[0].IAllreduce(in[:], out[:], coll.Int64, coll.Sum, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := coll.IdleInstances(comms[0]); n != 0 {
		t.Fatalf("second call left %d idle instances, want 0 (it must relaunch the first's)", n)
	}
	if err2 := watchdog(t, "second IAllreduce.Wait", h2.Wait); !errors.Is(err2, core.ErrPeerDead) {
		t.Fatalf("allreduce on a poisoned comm: err = %v, want ErrPeerDead", err2)
	}
	if !h1.Test() {
		t.Fatal("finished handle reports unfinished after its instance was relaunched")
	}
	if err := h1.Err(); err != err1 {
		t.Fatalf("first handle's Err after relaunch = %v, want its own outcome %v", err, err1)
	}
}

// TestCollIdleBoundedAcrossSizes: 1,000 allreduces of 1,000 distinct
// sizes relaunch the same instance. Size is not part of the shape, and
// allreduce never carries a resync-barrier prefix, so each rank ends
// with exactly one idle instance — the recursive-doubling graph — not
// one per size.
func TestCollIdleBoundedAcrossSizes(t *testing.T) {
	const sizes = 1000
	_, comms := newFaultComms(t, 2, nil)
	errs := make(chan error, len(comms))
	for r := range comms {
		go func() {
			errs <- func() error {
				for i := 1; i <= sizes; i++ {
					send := make([]int64, i) // 8·i bytes: recursive doubling throughout
					want := make([]int64, i)
					for e := range send {
						send[e] = int64(r*1000 + e)
						want[e] = int64(1000 + 2*e)
					}
					recv := make([]byte, 8*i)
					if err := comms[r].Allreduce(i64buf(send...), recv, coll.Int64, coll.Sum, core.Options{}); err != nil {
						return fmt.Errorf("rank %d size %d: %w", r, 8*i, err)
					}
					if !bytes.Equal(recv, i64buf(want...)) {
						return fmt.Errorf("rank %d size %d: reduction mismatch", r, 8*i)
					}
				}
				return nil
			}()
		}()
	}
	for range comms {
		if err := watchdog(t, "size sweep", func() error { return <-errs }); err != nil {
			t.Fatal(err)
		}
	}
	for r, c := range comms {
		if n := coll.IdleInstances(c); n != 1 {
			t.Errorf("rank %d keeps %d idle instances after %d sizes, want 1", r, n, sizes)
		}
	}
}

// TestIAllreduceAllocs pins the steady-state allocation count of a
// two-rank 8-byte IAllreduce pair, driven from one goroutine so the
// interleaving is reproducible. Per rank and call, the graph is
// relaunched, not built: what is left is the handle (one per call by
// design, since the caller keeps it) and the core posting path's
// per-receive bookkeeping. Allreduce carries no resync-barrier prefix,
// so every call posts the same receives.
func TestIAllreduceAllocs(t *testing.T) {
	if bench.RaceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	rts, comms := newFaultComms(t, 2, nil)
	send := [2][]byte{i64buf(3), i64buf(4)}
	recv := [2][]byte{make([]byte, 8), make([]byte, 8)}
	pair := func() {
		var hs [2]*coll.Handle
		for r := range hs {
			h, err := comms[r].IAllreduce(send[r], recv[r], coll.Int64, coll.Sum, core.Options{})
			if err == nil {
				err = h.Start()
			}
			if err != nil {
				t.Fatal(err)
			}
			hs[r] = h
		}
		// Ready ops post from whichever progress call signals them, so
		// progress alone drives both handles; Test only observes.
		for done := false; !done; {
			rts[0].ProgressAll()
			rts[1].ProgressAll()
			d0, d1 := hs[0].Test(), hs[1].Test()
			done = d0 && d1
		}
		for r, h := range hs {
			if err := h.Wait(); err != nil {
				t.Fatal(err)
			}
			if got := binary.LittleEndian.Uint64(recv[r]); got != 7 {
				t.Fatalf("rank %d: allreduce got %d, want 7", r, got)
			}
		}
	}
	for i := 0; i < 64; i++ { // build both shapes, grow every container
		pair()
	}
	allocs := testing.AllocsPerRun(256, pair)
	const pinned = 6
	if allocs > pinned {
		t.Errorf("IAllreduce pair allocates %.0f objects, want <= %d (graph rebuilt per call?)", allocs, pinned)
	}
	t.Logf("IAllreduce pair: %.0f allocs", allocs)
}
