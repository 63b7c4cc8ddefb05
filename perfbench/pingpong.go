package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"lci"
)

// ppDevices is the device pool of each am-pingpong rank. Posts stripe
// over it; with one device pinned per worker the workload ran into the
// platform's injection pacer instead of into this repository's code.
const ppDevices = 8

// pingpong is the am-pingpong workload. Flow w is worker w's ping-pong
// from rank w to rank 1-w; both workers progress both ranks, so each rank
// has two threads contending for the same resources.
type pingpong struct {
	seed      uint64
	world     *lci.World
	rts       [2]*lci.Runtime
	rc        lci.RComp
	pingOpt   [workers]lci.Option
	replyOpts [workers][]lci.Option
	flows     [workers]ppFlow
	strays    atomic.Int64 // handler fires no flow owns
	tr        []*tracer    // the running phase's rank tracers (nil untraced)
}

// ppFlow is one worker's ping-pong. Worker-owned fields are plain; fields
// the handlers touch (on whichever worker polled the message) are atomic.
type ppFlow struct {
	buf       []byte // the ping in flight
	reply     []byte // its echo: a parked reply post still reads it
	sent      int64  // pings posted
	sentAt    atomic.Int64
	postRet   atomic.Int64 // traced runs: when the ping's PostAM returned
	pongs     atomic.Int64
	rtt       atomic.Int64 // round trip of the latest pong, ns
	pingFires atomic.Int64 // ping handler runs at the target
	bad       atomic.Int64 // pongs or replies that failed the oracle
	_         [cacheLine]byte
}

// putPing writes ping seq of flow w: the sequence number, then a seeded
// check word the pong handler verifies.
func putPing(buf []byte, seed uint64, w int, seq int64) {
	binary.LittleEndian.PutUint32(buf, uint32(seq))
	binary.LittleEndian.PutUint32(buf[4:], uint32(mix(seed, uint64(w), uint64(seq))))
}

func (pp *pingpong) setup() error {
	pp.world = lci.NewWorld(2)
	for r := range pp.rts {
		rt, err := pp.world.NewRuntime(r)
		if err != nil {
			return err
		}
		for rt.NumDevices() < ppDevices {
			if _, err := rt.NewDevice(); err != nil {
				return err
			}
		}
		pp.rts[r] = rt
	}
	// Symmetric registration: the one handler has the same handle on
	// both ranks.
	for r, rt := range pp.rts {
		if rc := rt.RegisterHandler(pp.handler(r)); r == 0 {
			pp.rc = rc
		} else if rc != pp.rc {
			return fmt.Errorf("handler handles differ across ranks: %v vs %v", pp.rc, rc)
		}
	}
	for w := range pp.flows {
		pp.flows[w].buf, pp.flows[w].reply = lineBuf(8), lineBuf(8)
		pp.pingOpt[w] = lci.WithTag(2 * w)
		pp.replyOpts[w] = []lci.Option{lci.WithTag(2*w + 1), lci.WithNoRetry()}
	}
	return nil
}

// handler serves both message kinds on rank r. A ping (even tag) is echoed
// back from the poller with a no-retry post; a pong (odd tag) is checked
// against the ping in flight and ends the round trip.
func (pp *pingpong) handler(r int) func(lci.Status) {
	return func(st lci.Status) {
		tr := pp.tr
		var t0 int64
		if tr != nil {
			t0 = nanotime()
		}
		w := st.Tag >> 1
		if w < 0 || w >= workers || len(st.Buffer) != 8 {
			pp.strays.Add(1)
			return
		}
		f := &pp.flows[w]
		if st.Tag&1 == 0 {
			f.pingFires.Add(1)
			var p0 int64
			if tr != nil {
				p0 = nanotime()
			}
			// st.Buffer is valid only during this call, but a reply the
			// backlog parks is sent later from the buffer it was given.
			copy(f.reply, st.Buffer)
			s, err := pp.rts[r].PostAM(st.Rank, f.reply, pp.rc, pp.replyOpts[w]...)
			if err != nil || s.Failed() || s.IsRetry() || st.Rank != w {
				f.bad.Add(1)
			}
			if tr != nil {
				pp.traceHandler(tr[r], r, w, t0, p0, f)
			}
			return
		}
		now := t0
		if tr == nil {
			now = nanotime()
		}
		seq := f.pongs.Load()
		if st.Rank != 1-w || binary.LittleEndian.Uint32(st.Buffer) != uint32(seq) ||
			binary.LittleEndian.Uint32(st.Buffer[4:]) != uint32(mix(pp.seed, uint64(w), uint64(seq))) {
			f.bad.Add(1)
		}
		f.rtt.Store(now - f.sentAt.Load())
		f.pongs.Add(1)
		if tr != nil {
			t := tr[r]
			end := nanotime()
			t.mu.Lock()
			t.record(spHandler, seq, t0, end, -1, r)
			t.mu.Unlock()
		}
	}
}

// traceHandler records a ping handler run and the reply post nested in it,
// plus the ping's delivery time (0 when the handler ran before the
// sender's PostAM had even returned).
func (pp *pingpong) traceHandler(t *tracer, r, w int, t0, p0 int64, f *ppFlow) {
	p1 := nanotime()
	seq := f.pongs.Load()
	deliver := int64(0)
	if pr := f.postRet.Load(); pr >= f.sentAt.Load() && t0 > pr {
		deliver = t0 - pr
	}
	t.mu.Lock()
	h := t.record(spHandler, seq, t0, p1, -1, r)
	t.record(spPost, seq, p0, p1, h, r)
	t.deliver.add(deliver, false, &t.rng)
	t.mu.Unlock()
}

func (pp *pingpong) run(p *phase) error {
	p.rankTracers(2)
	pp.tr = p.rankTr
	defer func() { pp.tr = nil }()
	return runWorkers(func(w int) error { return pp.flow(p, w) })
}

func (pp *pingpong) progress(tr *tracer, op int64) int {
	return progress(pp.rts[0], tr, 0, op) + progress(pp.rts[1], tr, 1, op)
}

// flow runs worker w's closed loop: one ping in flight, posted striped
// over the pool, retried on Retry while progressing both ranks.
func (pp *pingpong) flow(p *phase, w int) error {
	f, log, tr := &pp.flows[w], p.logs[w], p.tr[w]
	rt := pp.rts[w]
	wt := waiter{p: p}
	for {
		now := nanotime()
		if p.stop(w, now) {
			break
		}
		seq := f.sent
		putPing(f.buf, pp.seed, w, seq)
		f.sentAt.Store(now)
		for {
			if tr != nil {
				tr.begin(spPost, seq)
			}
			st, err := rt.PostAM(1-w, f.buf, pp.rc, pp.pingOpt[w])
			if tr != nil {
				tr.end(false)
				f.postRet.Store(nanotime())
			}
			if err == nil && st.Failed() {
				err = st.Err()
			}
			if err != nil {
				log.failed++
				return failOp("PostAM ping", err)
			}
			if !st.IsRetry() {
				break
			}
			log.retries++
			if pp.progress(tr, seq) == 0 {
				if err := wt.spin(); err != nil {
					return err
				}
			}
		}
		f.sent++
		log.attempted++
		for f.pongs.Load() <= seq {
			if pp.progress(tr, seq) == 0 {
				if err := wt.spin(); err != nil {
					return err
				}
			}
		}
		rtt := f.rtt.Load()
		p.complete(w, now+rtt, rtt)
	}
	return p.linger(func() int { return pp.progress(tr, -1) })
}

// check is the per-flow oracle: every ping posted was served once and
// answered once, with the right bytes.
func (pp *pingpong) check() (int64, error) {
	var failed int64
	var errs []error
	for w := range pp.flows {
		f := &pp.flows[w]
		pongs, fires, bad := f.pongs.Load(), f.pingFires.Load(), f.bad.Load()
		if pongs != f.sent || fires != f.sent || bad != 0 {
			failed += abs(f.sent-pongs) + abs(f.sent-fires) + bad
			errs = append(errs, fmt.Errorf("flow %d: %d pings posted, %d served, %d pongs, %d failed the oracle",
				w, f.sent, fires, pongs, bad))
		}
	}
	if n := pp.strays.Load(); n != 0 {
		failed += n
		errs = append(errs, fmt.Errorf("%d AMs reached no flow", n))
	}
	return failed, errors.Join(errs...)
}

func (pp *pingpong) runtimes() []*lci.Runtime { return pp.rts[:] }

func (pp *pingpong) close() { pp.world.Close() }
