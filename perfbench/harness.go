package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lci"
)

// workers is the number of load-generating goroutines. It is part of the
// workload definition, not read from the host.
const workers = 2

// waitGrace is how long any single wait in the benchmark may last past the
// end of its phase before the run is failed as hung.
const waitGrace = 10 * time.Second

var errHung = errors.New("wait deadline expired")

// workload is one closed-loop load over the public lci API.
type workload interface {
	// setup builds the world, every runtime and registration, and
	// completes the first op on every flow.
	setup() error
	// run drives the load from both workers until the phase ends, then
	// drains every flow.
	run(p *phase) error
	// check is the oracle at quiesce: exact per-flow counts and a
	// balanced runtime. It returns the number of failed ops it found.
	check() (int64, error)
	runtimes() []*lci.Runtime
	close()
}

// cacheLine pads data one worker writes away from data the other worker
// touches: sharing a line would make the run's speed depend on where the
// allocator happened to put them.
const cacheLine = 64

// lineBuf returns a zeroed n-byte buffer (n <= cacheLine) that has a
// cache line to itself.
func lineBuf(n int) []byte { return make([]byte, cacheLine)[:n] }

// workerLog is one worker's record of a phase.
type workerLog struct {
	_         [cacheLine]byte
	sliceOps  []int64    // ops completed per time slice
	lat       [][]uint32 // per-op latency samples per time slice, ns
	attempted int64
	failed    int64
	retries   int64 // Retry statuses returned by posts
	xfers     int64 // rendezvous transfers completed
	_         [cacheLine]byte
}

// phase is one stretch of closed-loop load: warm-up, timed or traced.
// Times are nanotime readings.
type phase struct {
	startNs   int64
	endNs     int64 // workers start no new op after this
	stoppedNs int64 // when every flow had drained
	slices    int
	maxOps    int64 // if > 0, each worker stops after this many ops
	logs      [workers]*workerLog
	tr        [workers]*tracer // nil when untraced
	rankTr    []*tracer        // handler-context spans, one per rank; traced runs only
	abort     atomic.Bool
	done      atomic.Int32 // workers whose own flows have finished
}

// newPhase starts a phase of dur split into slices. When prev is given,
// each worker's per-slice latency buffers are sized from prev's sample
// rate, with headroom: growing one mid-phase copies up to megabytes and
// stalls the worker that owns it, which the tail latencies would show.
func newPhase(dur time.Duration, slices int, traced bool, prev *phase) *phase {
	p := &phase{slices: slices}
	for w := range p.logs {
		ops := make([]int64, slices+2*cacheLine/8)[cacheLine/8:][:slices]
		p.logs[w] = &workerLog{sliceOps: ops, lat: make([][]uint32, slices)}
		if traced {
			p.tr[w] = newTracer(uint64(w) + 1)
		}
		if prev == nil {
			continue
		}
		n := 0
		for _, l := range prev.logs[w].lat {
			n += len(l)
		}
		per := int(float64(n)*float64(dur)/float64(slices)/float64(prev.stoppedNs-prev.startNs)*1.25) + 1024
		for s := range p.logs[w].lat {
			p.logs[w].lat[s] = make([]uint32, 0, per)
		}
	}
	p.startNs = nanotime()
	p.endNs = p.startNs + int64(dur)
	return p
}

// drive runs one phase of a workload to its end.
func drive(wl workload, p *phase) error {
	err := wl.run(p)
	p.stoppedNs = nanotime()
	return err
}

// elapsed is the phase's length in seconds, drain included.
func (p *phase) elapsed() float64 { return float64(p.stoppedNs-p.startNs) / 1e9 }

// opsDone counts the ops completed in the phase.
func (p *phase) opsDone() int64 {
	var n int64
	for _, l := range p.logs {
		for _, k := range l.sliceOps {
			n += k
		}
	}
	return n
}

// stop reports whether worker w starts no new op.
func (p *phase) stop(w int, now int64) bool {
	return now >= p.endNs || (p.maxOps > 0 && p.logs[w].attempted >= p.maxOps)
}

// traced reports whether the phase records spans.
func (p *phase) traced() bool { return p.tr[0] != nil }

// rankTracers gives a traced phase one handler-context tracer per rank.
func (p *phase) rankTracers(ranks int) {
	if !p.traced() {
		return
	}
	p.rankTr = make([]*tracer, ranks)
	for r := range p.rankTr {
		p.rankTr[r] = newTracer(uint64(100 + r))
	}
}

// slice maps a completion time to its time slice; completions after the
// end (draining) count toward the last one.
func (p *phase) slice(now int64) int {
	s := int((now - p.startNs) * int64(p.slices) / (p.endNs - p.startNs))
	return min(max(s, 0), p.slices-1)
}

// complete logs one completed op with its latency.
func (p *phase) complete(w int, now, latNs int64) {
	l, s := p.logs[w], p.slice(now)
	l.sliceOps[s]++
	l.lat[s] = append(l.lat[s], uint32(min(max(latNs, 0), 1<<32-1)))
}

// waiter is the discipline of every wait loop in the benchmark: yield now
// and then so that neither worker starves the other on a shared core, and
// fail instead of hanging once the phase's wait deadline has passed or the
// other worker gave up.
type waiter struct {
	p *phase
	n int
}

func (wt *waiter) spin() error {
	wt.n++
	if wt.n&63 == 0 {
		runtime.Gosched()
	}
	if wt.n&1023 == 0 {
		if wt.p.abort.Load() {
			return errHung
		}
		if nanotime() > wt.p.endNs+int64(waitGrace) {
			wt.p.abort.Store(true)
			return errHung
		}
	}
	return nil
}

// linger keeps a worker whose own flows have finished progressing the
// devices it serves until every worker's flows have finished.
func (p *phase) linger(progress func() int) error {
	p.done.Add(1)
	wt := waiter{p: p}
	for p.done.Load() < workers {
		if progress() == 0 {
			if err := wt.spin(); err != nil {
				return err
			}
		}
	}
	return nil
}

// runWorkers runs fn once per worker on its own goroutine and waits for
// all of them.
func runWorkers(fn func(w int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = fn(w)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// failOp is the error for an op that returned an error or completed
// failed; it fails the run.
func failOp(what string, err error) error { return fmt.Errorf("%s: %w", what, err) }

// progress makes one progress round on every device of a rank
// (Runtime.Progress), traced as one span when tr is set.
func progress(rt *lci.Runtime, tr *tracer, rank int, op int64) int {
	if tr == nil {
		return rt.Progress()
	}
	tr.beginAt(spProgress, op, rank)
	n := rt.Progress()
	tr.end(n == 0)
	return n
}

// splitmix advances a SplitMix64 state and returns the next value; every
// seeded input in the benchmark comes from it.
func splitmix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mix hashes a seed and two coordinates into one value.
func mix(seed, a, b uint64) uint64 {
	s := seed ^ a*0xd1342543de82ef95 ^ b*0xaf251af3b0f025b5
	return splitmix(&s)
}
