package main

import (
	"math"
	"slices"

	"lci"
)

// minBeyond is the reporting rule for percentiles: a percentile is only
// reported when at least this many samples lie above it, so p99 needs at
// least 1000 samples.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of sorted by nearest rank,
// and false when fewer than minBeyond samples lie beyond it.
func percentile[T uint32 | float64](sorted []T, q float64) (T, bool) {
	n := len(sorted)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n-1-idx < minBeyond {
		return 0, false
	}
	return sorted[idx], true
}

// median is the middle of xs (the mean of the middle two for an even
// count); it sorts a copy and returns 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// frac is a/b, or 0 when b is 0: a per-op or per-call ratio over an empty
// phase, or over a layer the workload never reached, reads as zero.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerTotals is the sum over every rank and device of the telemetry
// counters the per-layer metrics read.
type layerTotals struct {
	posts, retryTxFull, backlogParks         int64
	matchHits, matchUnexpected               int64
	amFires, amDrops                         int64
	rtsRecv, rdvWrite, retransmits           int64
	completions                              int64
	poolGets, poolSteals, poolExhausted      int64
	netMsgs, netBytes, netRNR                int64
	aggAppends, aggBusy                      int64
	aggFlushSize, aggFlushAge, aggFlushExpl  int64
	backlogLen, poolAllocated, poolAvailable int64 // gauges: newest reading
}

// totals sums the counters of a set of rank snapshots.
func totals(snaps []lci.TelemetrySnapshot) layerTotals {
	var t layerTotals
	for _, s := range snaps {
		c := s.Total()
		t.posts += c.PostInline + c.PostEager + c.PostRendezvous + c.PostPut + c.PostGet
		t.retryTxFull += c.RetryTxFull
		t.backlogParks += c.BacklogParks
		t.matchHits += c.MatchHits
		t.matchUnexpected += c.MatchUnexpected
		t.amFires += c.AMFires
		t.amDrops += c.AMDrops
		t.rtsRecv += c.RTSRecv
		t.rdvWrite += c.RdvWrite
		t.retransmits += c.Retransmits
		t.completions += c.Completions
		for _, d := range s.Devices {
			t.netMsgs += d.Gauges.Net.Msgs
			t.netBytes += d.Gauges.Net.Bytes
			t.netRNR += d.Gauges.Net.RNR
			t.backlogLen += int64(d.Gauges.BacklogLen)
		}
		t.poolGets += s.Pool.Gets
		t.poolSteals += s.Pool.Steals
		t.poolExhausted += s.Pool.Exhausted
		t.poolAllocated += s.Pool.Allocated
		t.poolAvailable += s.Pool.Available
		t.aggAppends += s.Agg.Appends
		t.aggBusy += s.Agg.Busy
		t.aggFlushSize += s.Agg.FlushSize
		t.aggFlushAge += s.Agg.FlushAge
		t.aggFlushExpl += s.Agg.FlushExplicit
	}
	return t
}

// phaseDelta is what happened between two sets of rank snapshots: the
// rank-wise Sub of each pair, summed. Gauges keep the later reading.
func phaseDelta(before, after []lci.TelemetrySnapshot) layerTotals {
	d := make([]lci.TelemetrySnapshot, len(after))
	for i := range after {
		d[i] = after[i].Sub(before[i])
	}
	return totals(d)
}

// perOpCounts normalizes a phase's telemetry deltas by the ops it
// completed (xfers counts rendezvous transfers, for the RTS ratio).
func perOpCounts(t layerTotals, ops, xfers int64) map[string]float64 {
	o := float64(ops)
	flushes := float64(t.aggFlushSize + t.aggFlushAge + t.aggFlushExpl)
	return map[string]float64{
		"core.am.fires_per_op":     frac(float64(t.amFires), o),
		"core.am.drops":            float64(t.amDrops),
		"core.rdv.rts_per_xfer":    frac(float64(t.rtsRecv), float64(xfers)),
		"core.rdv.retransmits":     float64(t.retransmits),
		"packet.gets_per_op":       frac(float64(t.poolGets), o),
		"packet.steal_frac":        frac(float64(t.poolSteals), float64(t.poolGets)),
		"packet.exhausted":         float64(t.poolExhausted),
		"matching.unexpected_frac": frac(float64(t.matchUnexpected), float64(t.matchHits+t.matchUnexpected)),
		"backlog.parks_per_op":     frac(float64(t.backlogParks), o),
		"fabric.msgs_per_op":       frac(float64(t.netMsgs), o),
		"fabric.bytes_per_op":      frac(float64(t.netBytes), o),
		"fabric.rnr":               float64(t.netRNR),
		"netsim.txfull_per_post":   frac(float64(t.retryTxFull), float64(t.posts)),
		"agg.records_per_flush":    frac(float64(t.aggAppends), flushes),
		"agg.busy_per_append":      frac(float64(t.aggBusy), float64(t.aggAppends)),
		"agg.flush_size_frac":      frac(float64(t.aggFlushSize), flushes),
	}
}

// modelNs is the time the simulated provider spent in its modeled per-op
// costs: one send overhead per fabric message and rendezvous write, one
// receive overhead per completion polled. No change to this repository's
// Go code can save it.
func modelNs(t layerTotals, p lci.Platform) float64 {
	return float64(p.IBV.SendOverheadNs)*float64(t.netMsgs+t.rdvWrite) +
		float64(p.IBV.RecvOverheadNs)*float64(t.completions)
}
