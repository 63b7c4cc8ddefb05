package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"lci"
)

const (
	arRanks        = 8
	ranksPerWorker = arRanks / workers
)

// allreduce is the allreduce-8r workload: 8 ranks, worker w owning ranks
// [w*4, w*4+4) and running their 8-byte Int64-sum IAllreduce handles one
// collective at a time.
type allreduce struct {
	seed  uint64
	world *lci.World
	rts   [arRanks]*lci.Runtime
	send  [arRanks][]byte
	recv  [arRanks][]byte
	ws    [workers]arWorker
	limit atomic.Int64
}

// arWorker is one worker's count of collectives. Both workers must issue
// the same number: worker 0 decides when to stop and publishes the count
// in limit before issuing the last collective, which worker 1 cannot
// finish (and so cannot get past) without it.
type arWorker struct {
	next int64 // the next collective this worker issues
	bad  int64 // worker-ops with a result that failed the oracle
	_    [cacheLine]byte
}

// arInput is rank r's seeded input to collective k; 60-bit values keep the
// 8-rank sum inside int64.
func (a *allreduce) arInput(k int64, r int) int64 {
	return int64(mix(a.seed, uint64(k), uint64(r)) >> 4)
}

func (a *allreduce) setup() error {
	a.world = lci.NewWorld(arRanks)
	for r := range a.rts {
		rt, err := a.world.NewRuntime(r)
		if err != nil {
			return err
		}
		a.rts[r] = rt
		a.send[r], a.recv[r] = lineBuf(8), lineBuf(8)
	}
	return nil
}

func (a *allreduce) run(p *phase) error {
	a.limit.Store(-1)
	return runWorkers(func(w int) error { return a.flow(p, w) })
}

func (a *allreduce) progress(tr *tracer, w int, op int64) int {
	n := 0
	for r := w * ranksPerWorker; r < (w+1)*ranksPerWorker; r++ {
		n += progress(a.rts[r], tr, r, op)
	}
	return n
}

// flow runs worker w's collectives: start its four ranks' handles, then
// progress and test them until the last one completes.
func (a *allreduce) flow(p *phase, w int) error {
	log, tr := p.logs[w], p.tr[w]
	wt := waiter{p: p}
	base := w * ranksPerWorker
	var hs [ranksPerWorker]*lci.Coll
	for {
		k := a.ws[w].next
		if w == 0 && a.limit.Load() < 0 && (p.stop(0, nanotime()) || (p.maxOps > 0 && log.attempted+1 >= p.maxOps)) {
			a.limit.Store(k + 1)
		}
		if lim := a.limit.Load(); lim >= 0 && k >= lim {
			break
		}
		t0 := nanotime()
		var want int64
		for r := range a.rts {
			want += a.arInput(k, r)
		}
		for i := range hs {
			r := base + i
			binary.LittleEndian.PutUint64(a.send[r], uint64(a.arInput(k, r)))
			clear(a.recv[r])
			if tr != nil {
				tr.begin(spCollStart, k)
			}
			h, err := a.rts[r].IAllreduce(a.send[r], a.recv[r], lci.Int64, lci.OpSum)
			if err == nil {
				err = h.Start()
			}
			if tr != nil {
				tr.end(false)
			}
			if err != nil {
				log.failed++
				return failOp("IAllreduce", err)
			}
			hs[i] = h
		}
		log.attempted++
		bad := false
		for pending := len(hs); pending > 0; {
			n := 0
			for i, h := range hs {
				if h == nil {
					continue
				}
				r := base + i
				n += progress(a.rts[r], tr, r, k)
				if tr != nil {
					tr.begin(spCollTest, k)
				}
				ok := h.Test()
				if tr != nil {
					tr.end(!ok)
				}
				if !ok {
					continue
				}
				if err := h.Err(); err != nil {
					log.failed++
					return failOp("allreduce", err)
				}
				bad = bad || int64(binary.LittleEndian.Uint64(a.recv[r])) != want
				hs[i] = nil
				pending--
				n++
			}
			if n == 0 {
				if err := wt.spin(); err != nil {
					return err
				}
			}
		}
		if bad {
			a.ws[w].bad++
		}
		now := nanotime()
		p.complete(w, now, now-t0)
		a.ws[w].next++
	}
	return p.linger(func() int { return a.progress(tr, w, -1) })
}

func (a *allreduce) check() (int64, error) {
	var failed int64
	var errs []error
	if n0, n1 := a.ws[0].next, a.ws[1].next; n0 != n1 {
		failed += abs(n0 - n1)
		errs = append(errs, fmt.Errorf("workers issued %d and %d collectives", n0, n1))
	}
	for w := range a.ws {
		if b := a.ws[w].bad; b != 0 {
			failed += b
			errs = append(errs, fmt.Errorf("worker %d: %d collectives failed the oracle", w, b))
		}
	}
	return failed, errors.Join(errs...)
}

func (a *allreduce) runtimes() []*lci.Runtime { return a.rts[:] }

func (a *allreduce) close() { a.world.Close() }
