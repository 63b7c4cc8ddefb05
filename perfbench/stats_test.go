package main

import (
	"math"
	"testing"

	"lci"
)

func seq(n int) []uint32 {
	s := make([]uint32, n)
	for i := range s {
		s[i] = uint32(i + 1)
	}
	return s
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want uint32
		ok   bool
	}{
		{1000, 0.99, 990, true}, // 10 samples above 990
		{999, 0.99, 0, false},   // only 9 above the nearest rank
		{21, 0.50, 11, true},
		{20, 0.50, 10, true}, // nearest rank 10 of 20 leaves exactly 10 above
		{19, 0.50, 0, false},
		{0, 0.50, 0, false},
		{5000, 0.999, 0, false},
		{10000, 0.999, 9990, true},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%g) = %d, %v; want %d, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(seq(100), 1); ok {
		t.Error("q=1 has no samples beyond it and must not be reported")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %g", got)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},   // 0: root
		{start: 10, end: 30, parent: 0},    // 1: child
		{start: 20, end: 50, parent: 0},    // 2: overlaps child 1 by 10
		{start: 90, end: 120, parent: 0},   // 3: runs past the root's end
		{start: 25, end: 28, parent: 2},    // 4: grandchild
		{start: 200, end: 210, parent: -1}, // 5: lone root
	}
	want := []int64{100 - (40 + 10), 20, 30 - 3, 30, 3, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestMergeSpansGivesHandlersTheirProgressParent(t *testing.T) {
	worker := &tracer{spans: []span{
		{start: 0, end: 50, parent: -1, name: spProgress, rank: 0},
		{start: 60, end: 100, parent: -1, name: spProgress, rank: 1},
		{start: 70, end: 75, parent: 1, name: spPost, rank: 1},
	}}
	handlers := &tracer{spans: []span{
		{start: 80, end: 90, parent: -1, name: spHandler, rank: 1},
		{start: 82, end: 88, parent: 0, name: spPost, rank: 1},
		{start: 10, end: 20, parent: -1, name: spHandler, rank: 1}, // no rank-1 progress contains it
	}}
	all := mergeSpans([]*tracer{worker, handlers})
	if all[2].parent != 1 {
		t.Errorf("worker post parent = %d, want 1", all[2].parent)
	}
	if all[3].parent != 1 {
		t.Errorf("handler parent = %d, want the rank-1 progress span 1", all[3].parent)
	}
	if all[4].parent != 3 {
		t.Errorf("reply post parent = %d, want its handler 3", all[4].parent)
	}
	if all[5].parent != -1 {
		t.Errorf("uncontained handler parent = %d, want -1", all[5].parent)
	}
	self := selfTimes(all)
	if self[1] != 40-5-10 {
		t.Errorf("progress self time = %d, want %d", self[1], 40-5-10)
	}
}

func TestTracerDropsEmptyLeafSpans(t *testing.T) {
	tr := newTracer(1)
	tr.begin(spProgress, 7)
	tr.end(true)
	tr.begin(spProgress, 8)
	tr.begin(spPost, 8)
	tr.end(false)
	tr.end(true) // empty, but its child was kept
	if len(tr.spans) != 2 || tr.spans[1].parent != 0 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	st := tr.stats[spProgress]
	if st.calls != 2 || st.empty != 2 || len(st.res) != 2 {
		t.Errorf("progress stats = %+v", st)
	}
}

// snapshot returns a fresh runtime's telemetry snapshot: one device, every
// counter zero, so a test can set the counters it checks.
func snapshot(t *testing.T) lci.TelemetrySnapshot {
	t.Helper()
	w := lci.NewWorld(1)
	t.Cleanup(func() { w.Close() })
	rt, err := w.NewRuntime(0)
	if err != nil {
		t.Fatal(err)
	}
	return rt.Telemetry().Snapshot()
}

func TestPhaseDeltaSumsRanksAndNormalizesPerOp(t *testing.T) {
	before := []lci.TelemetrySnapshot{snapshot(t), snapshot(t)}
	after := []lci.TelemetrySnapshot{snapshot(t), snapshot(t)}
	for i := range before {
		before[i].Devices[0].Counters.AMFires = 100
		before[i].Devices[0].Gauges.Net.Msgs = 40
		before[i].Pool.Gets = 1000
		before[i].Agg.Appends = 7
	}
	after[0].Devices[0].Counters.AMFires = 100 + 300
	after[1].Devices[0].Counters.AMFires = 100 + 100
	after[0].Devices[0].Counters.RetryTxFull = 4
	after[0].Devices[0].Counters.PostInline = 400
	after[0].Devices[0].Gauges.Net.Msgs = 40 + 250
	after[1].Devices[0].Gauges.Net.Msgs = 40 + 150
	after[0].Pool.Gets, after[1].Pool.Gets = 1000+800, 1000
	after[0].Pool.Steals = 200
	after[0].Agg.Appends, after[1].Agg.Appends = 7+640, 7
	after[0].Agg.FlushSize, after[0].Agg.FlushAge = 3, 1
	after[0].Devices[0].Counters.RTSRecv = 50

	d := phaseDelta(before, after)
	m := perOpCounts(d, 200, 25)
	want := map[string]float64{
		"core.am.fires_per_op":     2,
		"fabric.msgs_per_op":       2,
		"packet.gets_per_op":       4,
		"packet.steal_frac":        0.25,
		"netsim.txfull_per_post":   0.01,
		"core.rdv.rts_per_xfer":    2,
		"agg.records_per_flush":    160,
		"agg.flush_size_frac":      0.75,
		"matching.unexpected_frac": 0, // no arrivals: a zero, not a NaN
	}
	for k, v := range want {
		if math.Abs(m[k]-v) > 1e-12 {
			t.Errorf("%s = %g, want %g", k, m[k], v)
		}
	}
	if z := perOpCounts(d, 0, 0)["core.am.fires_per_op"]; z != 0 {
		t.Errorf("per-op count over zero ops = %g, want 0", z)
	}
}
