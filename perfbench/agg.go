package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"lci"
)

const (
	aggTemplates = 4096 // distinct seeded record bodies
	aggMinRec    = 8    // record sizes are seeded in [aggMinRec, aggMaxRec]
	aggMaxRec    = 64
	// aggSampleEvery: one record in this many carries a latency stamp;
	// reading the clock per record would cost about as much as an append.
	aggSampleEvery = 64
	// aggBatch appends are timed as one span in traced runs, for the same
	// reason; agg.append_ns_p50 is the batch time divided by aggBatch,
	// including any poll the aggregator's backpressure forced inside it.
	aggBatch     = 64
	aggPollEvery = 256 // the producer polls rank 0 once per this many appends
	// aggWindow bounds the records appended but not yet delivered, as an
	// application's flow control would, to about two aggregation buffers:
	// one filling while the sink drains the other. With a window of many
	// buffers, record latency jumped between one buffer's fill time and
	// the whole window's drain time whenever the slower side switched
	// between producer and sink, and p99 swung from run to run.
	aggWindow    = 512
	aggStampRing = 1 << 16
)

// aggRecords is the agg-records workload: worker 0 produces seeded records
// on rank 0 through Aggregator.Append, worker 1 polls rank 1, whose sink
// checks every record.
type aggRecords struct {
	seed      uint64
	world     *lci.World
	rts       [2]*lci.Runtime
	ags       [2]*lci.Aggregator
	prodTh    *lci.AggThread // worker 0's handle on rank 0
	consTh    *lci.AggThread // worker 1's handle on rank 1
	templates [aggTemplates][]byte
	rec       []byte // the producer's scratch record

	// stamps[k/aggSampleEvery % aggStampRing] is when sampled record k
	// was appended.
	stamps [aggStampRing]atomic.Int64

	produced  atomic.Int64 // records appended (published when the producer stops)
	prodDone  atomic.Bool
	appended  int64        // producer-owned count
	delivered atomic.Int64 // received, published by the consumer after each poll
	_         [64]byte     // keeps the consumer's per-record writes off the producer's line

	// Consumer-owned: the sink runs only inside worker 1's polls of rank 1.
	received int64
	seqSum   uint64
	bad      int64
	strays   atomic.Int64 // records delivered to rank 0
	cur      *phase
	curSlice int
}

// newAggRecords generates the seeded record bodies; set-up time does not
// include it.
func newAggRecords(seed uint64) *aggRecords {
	a := &aggRecords{seed: seed, rec: make([]byte, aggMaxRec)}
	st := a.seed
	for i := range a.templates {
		n := aggMinRec + int(splitmix(&st)%(aggMaxRec-aggMinRec+1))
		t := make([]byte, n)
		for j := 8; j < n; j++ {
			t[j] = byte(splitmix(&st))
		}
		a.templates[i] = t
	}
	return a
}

func (a *aggRecords) setup() error {
	a.world = lci.NewWorld(2)
	for r := range a.rts {
		rt, err := a.world.NewRuntime(r)
		if err != nil {
			return err
		}
		a.rts[r] = rt
	}
	a.ags[0] = a.rts[0].NewAggregator(func(int, []byte) { a.strays.Add(1) }, lci.AggConfig{})
	a.ags[1] = a.rts[1].NewAggregator(a.sink, lci.AggConfig{})
	a.prodTh, a.consTh = a.ags[0].ThreadOn(0), a.ags[1].ThreadOn(0)
	return nil
}

// sink checks one delivered record against its template: the sequence
// number in its first bytes selects the seeded body it must carry.
func (a *aggRecords) sink(src int, rec []byte) {
	if len(rec) < 8 {
		a.bad++
		return
	}
	k := binary.LittleEndian.Uint64(rec)
	t := a.templates[k%aggTemplates]
	if src != 0 || len(rec) != len(t) || !bytes.Equal(rec[8:], t[8:]) {
		a.bad++
	}
	a.received++
	a.seqSum += k
	if p := a.cur; p != nil {
		l := p.logs[1]
		if k%aggSampleEvery == 0 {
			now := nanotime()
			p.complete(1, now, now-a.stamps[k/aggSampleEvery%aggStampRing].Load())
		} else {
			l.sliceOps[a.curSlice]++
		}
	}
}

func (a *aggRecords) run(p *phase) error {
	a.prodDone.Store(false)
	a.cur = p
	defer func() { a.cur = nil }()
	return runWorkers(func(w int) error {
		if w == 0 {
			return a.produce(p)
		}
		return a.consume(p)
	})
}

func (a *aggRecords) poll(tr *tracer, r int, th *lci.AggThread) int {
	if tr == nil {
		return a.ags[r].Poll(th)
	}
	tr.begin(spAggPoll, -1)
	n := a.ags[r].Poll(th)
	tr.end(n == 0)
	return n
}

// produce appends records until the phase ends, polling rank 0 when the
// aggregator pushes back, when aggWindow records are undelivered, and
// every aggPollEvery appends (which drives its age flush), then flushes
// and waits until the consumer has every record.
func (a *aggRecords) produce(p *phase) error {
	log, tr, ag, th := p.logs[0], p.tr[0], a.ags[0], a.prodTh
	wt := waiter{p: p}
	k := a.appended
	batchOpen := false
	for ; ; k++ {
		if k%aggBatch == 0 {
			if batchOpen {
				tr.end(false)
				batchOpen = false
			}
			if p.stop(0, nanotime()) {
				break
			}
			if k%aggPollEvery == 0 {
				a.poll(tr, 0, th)
			}
			for k-a.delivered.Load() >= aggWindow {
				if a.poll(tr, 0, th) == 0 {
					if err := wt.spin(); err != nil {
						return err
					}
				}
			}
			if tr != nil {
				tr.begin(spAggAppend, k)
				batchOpen = true
			}
		} else if p.maxOps > 0 && log.attempted >= p.maxOps {
			break // set-up's one-op phase ends mid-batch
		}
		if k%aggSampleEvery == 0 {
			a.stamps[k/aggSampleEvery%aggStampRing].Store(nanotime())
		}
		t := a.templates[k%aggTemplates]
		rec := a.rec[:len(t)]
		copy(rec[8:], t[8:])
		binary.LittleEndian.PutUint64(rec, uint64(k))
		for {
			err := ag.Append(th, 1, rec)
			if err == nil {
				break
			}
			if !errors.Is(err, lci.ErrAggBusy) {
				log.failed++
				return failOp("Append", err)
			}
			log.retries++
			if a.poll(tr, 0, th) == 0 {
				if err := wt.spin(); err != nil {
					return err
				}
			}
		}
		log.attempted++
	}
	if batchOpen {
		tr.end(false)
	}
	a.appended = k
	a.produced.Store(k)
	a.prodDone.Store(true)
	if tr != nil {
		tr.begin(spAggFlush, -1)
	}
	ag.FlushDest(th, 1)
	if tr != nil {
		tr.end(false)
	}
	return p.linger(func() int { return a.poll(tr, 0, th) })
}

// consume polls rank 1 until the producer has stopped and every record it
// appended has arrived.
func (a *aggRecords) consume(p *phase) error {
	tr := p.tr[1]
	wt := waiter{p: p}
	for !a.prodDone.Load() || a.received < a.produced.Load() {
		a.curSlice = p.slice(nanotime())
		n := a.poll(tr, 1, a.consTh)
		a.delivered.Store(a.received)
		if n == 0 {
			if err := wt.spin(); err != nil {
				return err
			}
		}
	}
	return p.linger(func() int { return a.poll(tr, 1, a.consTh) })
}

// check is the oracle: every record appended arrived exactly once (count
// and sequence-number sum) with its seeded body, and nothing is queued.
func (a *aggRecords) check() (int64, error) {
	n := a.appended
	var errs []error
	failed := a.bad + a.strays.Load()
	if a.received != n || a.seqSum != uint64(n)*uint64(n-1)/2 {
		failed += max(abs(n-a.received), 1)
		errs = append(errs, fmt.Errorf("%d records appended, %d delivered (sequence sum %d, want %d)",
			n, a.received, a.seqSum, uint64(n)*uint64(n-1)/2))
	}
	if a.bad != 0 || a.strays.Load() != 0 {
		errs = append(errs, fmt.Errorf("%d records failed the oracle, %d reached rank 0", a.bad, a.strays.Load()))
	}
	for r, ag := range a.ags {
		if q := ag.QueuedBytes(); q != 0 {
			errs = append(errs, fmt.Errorf("rank %d: %d aggregated bytes still queued", r, q))
		}
		if d := ag.DroppedRecords(); d != 0 {
			failed += d
			errs = append(errs, fmt.Errorf("rank %d: %d records dropped", r, d))
		}
	}
	return failed, errors.Join(errs...)
}

func (a *aggRecords) runtimes() []*lci.Runtime { return a.rts[:] }

func (a *aggRecords) close() { a.world.Close() }
