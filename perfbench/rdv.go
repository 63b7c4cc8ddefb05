package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"lci"
)

const (
	rdvSize    = 64 << 10 // above MaxEager: every transfer is a rendezvous
	rdvWindow  = 4        // transfers in flight per worker
	rdvDevices = ppDevices
)

// rdv is the rdv-64k workload. Flow w is worker w's stream of two-sided
// transfers from rank w to rank 1-w; the worker posts both sides and
// progresses both ranks, and one CQ per flow takes both completions.
type rdv struct {
	seed  uint64
	world *lci.World
	rts   [2]*lci.Runtime
	flows [workers]rdvFlow
}

// rdvFlow is one worker's transfers; the worker alone touches it.
type rdvFlow struct {
	cq    *lci.CQ
	slots [rdvWindow]rdvSlot
	next  int64 // transfers started
	done  int64 // transfers verified
	bad   int64 // transfers that failed the oracle
	_     [cacheLine]byte
}

// rdvSlot is one transfer in flight: its seeded payload (want), the send
// buffer carrying it with the sequence number stamped over its first
// bytes, the receive buffer it must land in, and which of its posts and
// completions are still due.
type rdvSlot struct {
	want, send, recv []byte
	seq              int64
	startNs          int64
	needSend         bool // receive posted, send not yet accepted
	sendDue, recvDue bool // completions not yet popped
}

func (sl *rdvSlot) idle() bool { return !sl.needSend && !sl.sendDue && !sl.recvDue }

// newRdv generates the seeded payloads; set-up time does not include it.
func newRdv(seed uint64) *rdv {
	r := &rdv{seed: seed}
	for w := range r.flows {
		f := &r.flows[w]
		for s := range f.slots {
			sl := &f.slots[s]
			sl.want, sl.recv = make([]byte, rdvSize), make([]byte, rdvSize)
			st := mix(r.seed, uint64(w), uint64(1000+s))
			for i := 0; i < rdvSize; i += 8 {
				binary.LittleEndian.PutUint64(sl.want[i:], splitmix(&st))
			}
			sl.send = bytes.Clone(sl.want)
		}
	}
	return r
}

func (r *rdv) setup() error {
	r.world = lci.NewWorld(2)
	for k := range r.rts {
		rt, err := r.world.NewRuntime(k)
		if err != nil {
			return err
		}
		for rt.NumDevices() < rdvDevices {
			if _, err := rt.NewDevice(); err != nil {
				return err
			}
		}
		r.rts[k] = rt
	}
	if r.rts[0].MaxEager() >= rdvSize {
		return fmt.Errorf("payload %d B would travel eagerly (MaxEager %d B)", rdvSize, r.rts[0].MaxEager())
	}
	for w := range r.flows {
		r.flows[w].cq = lci.NewCQ()
	}
	return nil
}

func (r *rdv) run(p *phase) error {
	return runWorkers(func(w int) error { return r.flow(p, w) })
}

func (r *rdv) progress(tr *tracer, op int64) int {
	return progress(r.rts[0], tr, 0, op) + progress(r.rts[1], tr, 1, op)
}

// start posts the receive at rank 1-w and then the send at rank w for the
// transfer in slot s, stamping its sequence number over the payload's
// first bytes. A post answered with Retry is taken up again on the next
// round.
func (r *rdv) start(p *phase, w, s int) error {
	f, log, tr := &r.flows[w], p.logs[w], p.tr[w]
	sl := &f.slots[s]
	if sl.idle() {
		sl.seq = f.next
		sl.startNs = nanotime()
		binary.LittleEndian.PutUint64(sl.send, uint64(sl.seq))
		clear(sl.recv[:8])
		st, err := r.post(tr, sl.seq, func() (lci.Status, error) { return r.rts[1-w].PostRecv(w, sl.recv, s, f.cq) })
		if err != nil {
			log.failed++
			return failOp("PostRecv", err)
		}
		if st.IsRetry() {
			log.retries++
			return nil
		}
		if st.IsDone() {
			return fmt.Errorf("flow %d: receive %d matched before its send was posted", w, sl.seq)
		}
		sl.recvDue, sl.needSend = true, true
		f.next++
		log.attempted++
	}
	st, err := r.post(tr, sl.seq, func() (lci.Status, error) { return r.rts[w].PostSend(1-w, sl.send, s, f.cq) })
	if err != nil {
		log.failed++
		return failOp("PostSend", err)
	}
	if st.IsRetry() {
		log.retries++
		return nil
	}
	sl.needSend, sl.sendDue = false, !st.IsDone()
	return nil
}

// post makes one post call, traced as a span, folding a failed status
// into the error.
func (r *rdv) post(tr *tracer, op int64, call func() (lci.Status, error)) (lci.Status, error) {
	if tr != nil {
		tr.begin(spPost, op)
	}
	st, err := call()
	if tr != nil {
		tr.end(false)
	}
	if err == nil && st.Failed() {
		err = st.Err()
	}
	return st, err
}

// finish handles one completion popped from the flow's CQ. A receive
// completion ends the op once its bytes match the slot's seeded payload.
func (r *rdv) finish(p *phase, w int, st lci.Status) error {
	f, log := &r.flows[w], p.logs[w]
	if st.Failed() {
		log.failed++
		return failOp("transfer completion", st.Err())
	}
	s := st.Tag
	if s < 0 || s >= rdvWindow {
		f.bad++
		return nil
	}
	sl := &f.slots[s]
	if st.Rank == 1-w { // the send's completion names its target
		if !sl.sendDue {
			f.bad++
		}
		sl.sendDue = false
		return nil
	}
	if !sl.recvDue || st.Rank != w || st.Size != rdvSize ||
		binary.LittleEndian.Uint64(sl.recv) != uint64(sl.seq) || !bytes.Equal(sl.recv[8:], sl.want[8:]) {
		f.bad++
	}
	sl.recvDue = false
	f.done++
	log.xfers++
	now := nanotime()
	p.complete(w, now, now-sl.startNs)
	return nil
}

// flow runs worker w's closed loop with rdvWindow transfers in flight.
func (r *rdv) flow(p *phase, w int) error {
	f, tr := &r.flows[w], p.tr[w]
	wt := waiter{p: p}
	for {
		stopping := p.stop(w, nanotime())
		for s := range f.slots {
			if sl := &f.slots[s]; sl.needSend || (sl.idle() && !stopping) {
				if err := r.start(p, w, s); err != nil {
					return err
				}
			}
		}
		n := 0
		for {
			if tr != nil {
				tr.begin(spCQPop, -1)
			}
			st, ok := f.cq.Pop()
			if tr != nil {
				tr.end(!ok)
			}
			if !ok {
				break
			}
			n++
			if err := r.finish(p, w, st); err != nil {
				return err
			}
		}
		if stopping && !r.inFlight(w) {
			break
		}
		if n+r.progress(tr, f.next) == 0 {
			if err := wt.spin(); err != nil {
				return err
			}
		}
	}
	return p.linger(func() int { return r.progress(tr, -1) })
}

func (r *rdv) inFlight(w int) bool {
	for i := range r.flows[w].slots {
		if !r.flows[w].slots[i].idle() {
			return true
		}
	}
	return false
}

// check is the per-flow oracle: every transfer started was received once,
// intact, and both of its completions arrived.
func (r *rdv) check() (int64, error) {
	var failed int64
	var errs []error
	for w := range r.flows {
		f := &r.flows[w]
		if f.done != f.next || f.bad != 0 || r.inFlight(w) {
			failed += abs(f.next-f.done) + f.bad
			errs = append(errs, fmt.Errorf("flow %d: %d transfers started, %d verified, %d failed the oracle",
				w, f.next, f.done, f.bad))
		}
	}
	return failed, errors.Join(errs...)
}

func (r *rdv) runtimes() []*lci.Runtime { return r.rts[:] }

func (r *rdv) close() { r.world.Close() }
