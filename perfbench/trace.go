package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// spanName names the layer call a span wraps. Spans are recorded only at
// the benchmark's own call sites; nothing inside the runtime is
// instrumented.
type spanName uint8

const (
	spPost      spanName = iota // PostAM / PostSend / PostRecv
	spProgress                  // Runtime.Progress
	spHandler                   // the benchmark's AM handler, entry to exit
	spCQPop                     // CQ.Pop
	spCollStart                 // IAllreduce + Start
	spCollTest                  // Coll.Test
	spAggAppend                 // a batch of aggBatch Aggregator.Append calls
	spAggPoll                   // Aggregator.Poll
	spAggFlush                  // Aggregator.FlushDest
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"core.post", "core.progress", "core.am.handler", "comp.cq.pop",
	"coll.start", "coll.test", "agg.append", "agg.poll", "agg.flush",
}

// reservoirSize bounds the duration samples kept per span name; the
// per-layer medians come from this uniform sample of every call.
const reservoirSize = 4096

// spanCap bounds the spans one tracer stores. Once full, later calls still
// count toward the per-name statistics but are not stored.
const spanCap = 1 << 17

// span is one recorded call. parent indexes the same tracer's spans (-1:
// none); a handler span's parent is resolved after the run, by containment
// in the progress call that ran it.
type span struct {
	start, end int64 // ns since the run's epoch
	op         int64 // the op the call served (-1: none)
	parent     int32
	name       spanName
	rank       int8 // progress and handler spans: where the call ran
}

// nameStats accumulates every call of one span name.
type nameStats struct {
	calls, empty, totalNs int64
	res                   []uint32
}

func (s *nameStats) add(d int64, empty bool, rng *uint64) {
	s.calls++
	s.totalNs += d
	if empty {
		s.empty++
	}
	v := uint32(min(d, 1<<32-1))
	if len(s.res) < reservoirSize {
		s.res = append(s.res, v)
		return
	}
	if j := splitmix(rng) % uint64(s.calls); j < reservoirSize {
		s.res[j] = v
	}
}

func (s *nameStats) merge(o *nameStats) {
	s.calls += o.calls
	s.empty += o.empty
	s.totalNs += o.totalNs
	s.res = append(s.res, o.res...)
}

// frame is an open span: where it is stored (-1: not stored) and when it
// began.
type frame struct {
	start int64
	idx   int32
	name  spanName
}

// tracer keeps one goroutine's spans in memory. A rank tracer (for spans
// recorded in handler context, which may run on either worker) is shared
// and guarded by mu; a worker tracer is owned by its worker.
type tracer struct {
	mu    sync.Mutex
	spans []span
	stack []frame
	stats [numSpanNames]nameStats
	// deliver samples the AM delivery time, from the ping's post return
	// to the remote handler's entry; it spans two goroutines, so it is a
	// statistic, not a span.
	deliver nameStats
	rng     uint64
}

func newTracer(seed uint64) *tracer {
	return &tracer{spans: make([]span, 0, spanCap), rng: seed}
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name spanName, op int64) { t.beginAt(name, op, -1) }

// beginAt is begin for a call on a given rank.
func (t *tracer) beginAt(name spanName, op int64, rank int) {
	f := frame{name: name, idx: -1}
	if len(t.spans) < cap(t.spans) {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		f.idx = int32(len(t.spans))
		t.spans = append(t.spans, span{op: op, parent: parent, name: name, rank: int8(rank)})
	}
	f.start = nanotime()
	t.stack = append(t.stack, f)
}

// end closes the innermost span. An empty call (a progress round that
// found nothing, a pop of an empty queue) counts in the statistics but is
// not kept as a span when nothing nested in it was kept.
func (t *tracer) end(empty bool) {
	now := nanotime()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.stats[f.name].add(now-f.start, empty, &t.rng)
	if f.idx < 0 {
		return
	}
	if empty && int(f.idx) == len(t.spans)-1 {
		t.spans = t.spans[:f.idx]
		return
	}
	t.spans[f.idx].start, t.spans[f.idx].end = f.start, now
}

// record stores a span measured by the caller; parent indexes this
// tracer's spans. It returns the stored index (-1 when full).
func (t *tracer) record(name spanName, op int64, start, end int64, parent int32, rank int) int32 {
	t.stats[name].add(end-start, false, &t.rng)
	if len(t.spans) == cap(t.spans) {
		return -1
	}
	t.spans = append(t.spans, span{start: start, end: end, op: op, parent: parent, name: name, rank: int8(rank)})
	return int32(len(t.spans) - 1)
}

// mergeSpans concatenates the tracers' spans into one slice, rebasing
// parent indices, and gives each parentless handler span the tightest
// stored progress span on its rank that contains it: handlers run inside
// the progress call that polled their message. When both workers were
// progressing the rank, the pick may name the wrong one of the two; the
// self time per span name is the same either way.
func mergeSpans(ts []*tracer) []span {
	var all []span
	for _, t := range ts {
		base := int32(len(all))
		for _, s := range t.spans {
			if s.parent >= 0 {
				s.parent += base
			}
			all = append(all, s)
		}
	}
	var progress []int32
	for i, s := range all {
		if s.name == spProgress {
			progress = append(progress, int32(i))
		}
	}
	slices.SortFunc(progress, func(a, b int32) int { return int(all[a].start - all[b].start) })
	for i := range all {
		h := &all[i]
		if h.name != spHandler || h.parent >= 0 {
			continue
		}
		// Latest-starting progress span that began before the handler.
		k, _ := slices.BinarySearchFunc(progress, h.start, func(p int32, t int64) int {
			if all[p].start <= t {
				return -1
			}
			return 1
		})
		for j := k - 1; j >= 0 && j >= k-64; j-- {
			p := all[progress[j]]
			if p.rank == h.rank && p.end >= h.end {
				h.parent = progress[j]
				break
			}
		}
	}
	return all
}

// selfTimes returns each span's duration minus the part of it that its
// children cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		slices.SortFunc(kids, func(a, b int32) int { return int(spans[a].start - spans[b].start) })
		covered, reach := int64(0), s.start
		for _, k := range kids {
			lo, hi := max(spans[k].start, reach), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// writeSpans writes the merged spans as tab-separated text, one per line.
func writeSpans(path string, spans []span, self []int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tname\tparent\top\trank\tstart_ns\tend_ns\tself_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n",
			i, spanNames[s.name], s.parent, s.op, s.rank, s.start, s.end, self[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
