// Command perfbench is the repository's benchmark. It drives the public
// lci API in four closed-loop workloads, each loaded by exactly two worker
// goroutines, checks every delivery against a seeded oracle, and prints
// the end-to-end metrics (untraced runs) or the per-layer metrics (traced
// runs) as the last line of its output:
//
//	bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// The workloads, and why each was chosen:
//
//   - am-pingpong: 2 ranks; worker w acts as thread w of both ranks and
//     sends 8 B AM pings to a remote handler that replies from the poller
//     with a no-retry post, one ping in flight per worker, posts striped
//     over an 8-device pool per rank. It is the paper's Fig. 4 pattern.
//     Nearly all of its work is in internal/core post/progress/AM
//     dispatch, internal/packet and the eager internal/netsim path; it
//     does no work in matching, comp queues, rendezvous, agg or coll. With
//     one pinned device per worker it hit the 8 µs InjectGapNs pacer cap;
//     striped over 8 devices the refusals fall to 0 and the workload is
//     limited by our code, not by the model.
//   - rdv-64k: 2 ranks, the same worker-drives-both-ranks layout, two-sided
//     PostSend/PostRecv of 64 KiB payloads (above MaxEager) with a few
//     transfers in flight and completion through a CQ. It uses the same
//     post path differently, through rendezvous RTS/RTR/write, the
//     matching engine, CQ pops and byte copies, and barely touches the
//     packet pool, so a small-message gain that costs the large-message
//     path (Fig. 5) shows up here.
//   - agg-records: 2 ranks; one worker produces seeded 8-64 B records on
//     rank 0 through Aggregator.Append, the other polls rank 1. Per-record
//     post and progress cost is amortized into batches, so internal/agg
//     append/flush dominates: this is where a flush-policy change shows,
//     and where am-pingpong predicts no change.
//   - allreduce-8r: 8 in-process ranks; each worker owns four and drives
//     their 8 B Int64-sum IAllreduce handles with Start/Progress/Test, one
//     collective at a time. It is the only workload that goes through
//     internal/coll, completion graphs and the matching engine at small
//     size, and its set-up covers lazy connection of 8x7 endpoints.
//
// End-to-end metrics, per workload op (am-pingpong: a round trip from the
// ping's PostAM to the pong handler; rdv-64k: a transfer from PostRecv to
// its verified receive completion; agg-records: a record from Append to
// the sink, latency sampled on one record in 64; allreduce-8r: a worker-op
// from starting its four ranks' IAllreduce to the last Test returning
// true): ops_per_s, op_p50_us and op_p99_us, each the median over the
// measured phase's one-second slices of that slice's value, and setup_s,
// the median of nine set-ups, each the first in its process, from
// NewWorld to the first completed op on every flow. Failed ops are
// reported as attempted/failed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"lci"
)

const (
	setupReps = 9                    // set-ups per run; setup_s is their median
	numSlices = 20                   // time slices of the measured phase; metrics are medians over them
	warmup    = time.Second          // untimed load before each measured phase
	spansDir  = ".bench_build/spans" // where traced runs write their spans
)

var epoch = time.Now()

// nanotime is the benchmark's clock: monotonic ns since start-up.
func nanotime() int64 { return int64(time.Since(epoch)) }

// spec is one workload's definition.
type spec struct {
	name           string
	ranks, devices int    // devices per rank
	rate           string // the paper-facing rate metric
	rateScale      float64
	rateUnit       string
	lat            string // the paper-facing latency metric's prefix
	build          func(seed uint64) workload
}

var specs = []spec{
	{"am-pingpong", 2, ppDevices, "msg_rate_mps", 1e-6, "Mmsg/s", "rtt",
		func(s uint64) workload { return &pingpong{seed: s} }},
	{"rdv-64k", 2, rdvDevices, "bw_gbps", rdvSize / 1e9, "GB/s", "xfer",
		func(s uint64) workload { return newRdv(s) }},
	{"agg-records", 2, 1, "rec_rate_mrps", 1e-6, "Mrec/s", "rec",
		func(s uint64) workload { return newAggRecords(s) }},
	{"allreduce-8r", arRanks, 1, "allreduce_rate_kops", 1e-3, "Kop/s", "allreduce",
		func(s uint64) workload { return &allreduce{seed: s} }},
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// setupOnly is how the benchmark times a set-up in a fresh process.
	setupOnly bool
}

func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the measured phase, seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "time one set-up, print its seconds and exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds < 1 || o.seconds > 600 {
		return o, fmt.Errorf("--seconds %d outside [1, 600]", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	o.trace = trace == 1
	if o.workload != "all" && !slices.ContainsFunc(specs, func(s spec) bool { return s.name == o.workload }) {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.setupOnly && o.workload == "all" {
		return o, errors.New("--setup-only needs one workload")
	}
	return o, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if o.setupOnly {
		i := slices.IndexFunc(specs, func(s spec) bool { return s.name == o.workload })
		wl, t, err := setUpOnce(specs[i], o.seed)
		if err != nil {
			fmt.Println(err)
			os.Exit(1)
		}
		wl.close()
		fmt.Println(t)
		return
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	var last result
	for _, s := range specs {
		if o.workload != "all" && s.name != o.workload {
			continue
		}
		res, err := runWorkload(s, o)
		if err != nil {
			fmt.Printf("%s: FAILED: %v\n", s.name, err)
		}
		last = res
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			total.Metrics[s.name+"/"+k] = m
		}
		if o.workload == "all" {
			printJSON(res)
		}
	}
	if o.workload == "all" {
		last = total
	}
	printJSON(last)
	if !last.Correct {
		os.Exit(1)
	}
}

func printJSON(r result) {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	fmt.Println(string(b))
}

// runWorkload sets the workload up setupReps times, warms the last world
// up, runs the measured phase (or, traced, an untraced and a traced half)
// and checks the oracle at quiesce.
func runWorkload(s spec, o options) (result, error) {
	res := result{Metrics: map[string]metric{}}
	plat := lci.SimExpanse()
	cond, _ := json.Marshal(map[string]any{ // plain values: always marshals
		"workload": s.name, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "workers": workers,
		"ranks": s.ranks, "devices_per_rank": s.devices, "platform": plat.Name, "go": runtime.Version(),
	})
	fmt.Printf("conditions: %s\n", cond)

	wl, setupS, err := setUp(s, o.seed)
	if err != nil {
		res.Failed = 1
		res.Attempted = 1
		return res, fmt.Errorf("set-up: %w", err)
	}
	defer wl.close()

	warm := newPhase(warmup, 1, false, nil)
	if err := drive(wl, warm); err != nil {
		return fail(res, wl, warm, fmt.Errorf("warm-up: %w", err))
	}
	warmRate := float64(warm.opsDone()) / warm.elapsed()
	fmt.Printf("warmup: %.3f s untimed, %.0f op/s\n", warm.elapsed(), warmRate)

	var ph *phase
	if !o.trace {
		ph = newPhase(time.Duration(o.seconds)*time.Second, numSlices, false, warm)
		if err := drive(wl, ph); err != nil {
			return fail(res, wl, ph, err)
		}
		e, err := endToEnd(ph)
		if err != nil {
			return fail(res, wl, ph, err)
		}
		res.Metrics["ops_per_s"] = metric{e.opsPerS, "op/s"}
		res.Metrics["op_p50_us"] = metric{e.p50us, "us"}
		res.Metrics["op_p99_us"] = metric{e.p99us, "us"}
		res.Metrics["setup_s"] = metric{setupS, "s"}
		fmt.Printf("%s: %s=%.4f %s %s_p50_us=%.3f %s_p99_us=%.3f (%d samples) setup_s=%.4f ops_per_s=%.1f\n",
			s.name, s.rate, e.opsPerS*s.rateScale, s.rateUnit, s.lat, e.p50us, s.lat, e.p99us,
			e.samples, setupS, e.opsPerS)
		fmt.Printf("warmup rate / timed rate = %.3f\n", warmRate/e.opsPerS)
	} else {
		half := time.Duration(o.seconds) * time.Second / 2
		base := newPhase(half, 1, false, warm)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := drive(wl, base); err != nil {
			return fail(res, wl, base, err)
		}
		runtime.ReadMemStats(&m1)
		before := snapshots(wl)
		ph = newPhase(half, 1, true, base)
		if err := drive(wl, ph); err != nil {
			return fail(res, wl, ph, err)
		}
		after := snapshots(wl)
		layers := perLayer(ph, phaseDelta(before, after), plat)
		baseOps := float64(base.opsDone())
		layers["go.alloc_bytes_per_op"] = frac(float64(m1.TotalAlloc-m0.TotalAlloc), baseOps)
		layers["go.mallocs_per_op"] = frac(float64(m1.Mallocs-m0.Mallocs), baseOps)
		layers["go.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
		layers["trace.overhead_frac"] = 1 - frac(float64(ph.opsDone())/ph.elapsed(), baseOps/base.elapsed())
		for _, l := range layerMetrics {
			res.Metrics[l.name] = metric{layers[l.name], l.unit}
			fmt.Printf("  %-26s %14.4f %s\n", l.name, layers[l.name], l.unit)
		}
		fmt.Println("  (netsim.model_ns_frac: the platform's modeled send/receive costs times the ops counted,\n" +
			"   over worker time: the share no change to this repository's code can save)")
		fmt.Println("call sites (agg.append_ns_p50 times batches of 64 appends):")
		for _, l := range callSiteMetrics {
			if v, ok := layers[l.name]; ok {
				fmt.Printf("  %-26s %14.4f %s\n", l.name, v, l.unit)
			} else {
				fmt.Printf("  %-26s %14s\n", l.name, "n/a")
			}
		}
		if err := reportSpans(s, o.seed, ph); err != nil {
			fmt.Printf("spans: %v\n", err)
		}
	}
	for _, l := range ph.logs {
		res.Attempted += l.attempted
		res.Failed += l.failed
	}
	failed, err := wl.check()
	// The oracle may fault one op twice (a lost reply and a bad pong, say);
	// failed ops never outnumber attempted ones.
	res.Failed = min(res.Failed+failed, res.Attempted)
	if err == nil {
		err = balanced(wl)
	}
	if err != nil {
		dumpTelemetry(wl)
		res.Failed = max(res.Failed, 1)
		return res, fmt.Errorf("oracle: %w", err)
	}
	res.Correct = res.Failed == 0
	fmt.Printf("%s: attempted=%d failed=%d failed_frac=%g\n", s.name, res.Attempted, res.Failed,
		frac(float64(res.Failed), float64(res.Attempted)))
	return res, nil
}

// setUp times setupReps set-ups of the workload, each from NewWorld to
// the first completed op on every flow, and keeps the last world for the
// run. Each set-up runs first in a fresh process, the way a user pays for
// it: a second world in the same process would reuse heap memory and pay
// for clearing the first one's packet slabs instead.
func setUp(s spec, seed uint64) (workload, float64, error) {
	var times []float64
	for i := 1; i < setupReps; i++ {
		t, err := setUpInChild(s, seed)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, t)
	}
	wl, t, err := setUpOnce(s, seed)
	if err != nil {
		return nil, 0, err
	}
	times = append(times, t)
	fmt.Printf("setup: %d runs, seconds %s\n", setupReps, fmtFloats(times))
	return wl, median(times), nil
}

func setUpOnce(s spec, seed uint64) (workload, float64, error) {
	wl := s.build(seed)
	t0 := time.Now()
	if err := wl.setup(); err != nil {
		wl.close()
		return nil, 0, err
	}
	first := newPhase(waitGrace, 1, false, nil)
	first.maxOps = 1
	if err := drive(wl, first); err != nil {
		dumpTelemetry(wl)
		wl.close()
		return nil, 0, err
	}
	return wl, time.Since(t0).Seconds(), nil
}

// setUpInChild runs one set-up in a fresh process of this program and
// returns its time.
func setUpInChild(s spec, seed uint64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*waitGrace)
	defer cancel()
	out, err := exec.CommandContext(ctx, exe, "--workload", s.name,
		"--seed", strconv.FormatUint(seed, 10), "--setup-only").Output()
	if err != nil {
		return 0, fmt.Errorf("set-up process: %w\n%s", err, out)
	}
	t, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return 0, fmt.Errorf("set-up process printed %q", out)
	}
	return t, nil
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

// fail ends a run whose phase errored: a hung wait prints every rank's
// telemetry, and the run counts as failed.
func fail(res result, wl workload, p *phase, err error) (result, error) {
	dumpTelemetry(wl)
	for _, l := range p.logs {
		res.Attempted += l.attempted
		res.Failed += l.failed
	}
	res.Attempted = max(res.Attempted, 1)
	res.Failed = max(res.Failed, 1)
	return res, err
}

func dumpTelemetry(wl workload) {
	for r, rt := range wl.runtimes() {
		if rt != nil {
			fmt.Printf("== rank %d telemetry ==\n%s", r, rt.Telemetry().Snapshot().String())
		}
	}
}

func snapshots(wl workload) []lci.TelemetrySnapshot {
	rts := wl.runtimes()
	out := make([]lci.TelemetrySnapshot, len(rts))
	for i, rt := range rts {
		out[i] = rt.Telemetry().Snapshot()
	}
	return out
}

// balanced is the quiesce check on every rank: every packet is idle in the
// pool except those the devices keep posted as receives, nothing is
// parked on a backlog, and no AM was dropped. A last progress round first
// lets each device replenish the receives its final completions consumed.
func balanced(wl workload) error {
	var errs []error
	for r, rt := range wl.runtimes() {
		rt.Progress()
		t := totals([]lci.TelemetrySnapshot{rt.Telemetry().Snapshot()})
		posted := int64(rt.Core().Config().PreRecvs * rt.NumDevices())
		if t.poolAvailable+posted != t.poolAllocated || t.backlogLen != 0 || t.amDrops != 0 {
			errs = append(errs, fmt.Errorf("rank %d not balanced: %d of %d packets idle with %d posted as receives, backlog %d, AM drops %d",
				r, t.poolAvailable, t.poolAllocated, posted, t.backlogLen, t.amDrops))
		}
	}
	return errors.Join(errs...)
}

type e2e struct {
	opsPerS, p50us, p99us float64
	samples               int
}

// endToEnd reduces a measured phase to medians over its time slices: of
// the op rate, and of each slice's latency percentiles. A slice that
// shared the host with a burst of other work moves none of them.
func endToEnd(p *phase) (e2e, error) {
	sliceS := float64(p.endNs-p.startNs) / float64(p.slices) / 1e9
	var rates, p50s, p99s []float64
	n := 0
	for i := 0; i < p.slices; i++ {
		var ops int64
		var lat []uint32
		for _, l := range p.logs {
			ops += l.sliceOps[i]
			lat = append(lat, l.lat[i]...)
		}
		slices.Sort(lat)
		p50, ok50 := percentile(lat, 0.50)
		p99, ok99 := percentile(lat, 0.99)
		if !ok50 || !ok99 {
			return e2e{}, fmt.Errorf("slice %d has %d latency samples: too few to report p99", i, len(lat))
		}
		n += len(lat)
		rates = append(rates, float64(ops)/sliceS)
		p50s = append(p50s, float64(p50)/1e3)
		p99s = append(p99s, float64(p99)/1e3)
	}
	fmt.Printf("per slice: op/s %s\n  p50 us %s\n  p99 us %s\n", fmtFloats(rates), fmtFloats(p50s), fmtFloats(p99s))
	return e2e{opsPerS: median(rates), p50us: median(p50s), p99us: median(p99s), samples: n}, nil
}

type layerMetric struct{ name, unit string }

// layerMetrics are the per-layer metrics of a traced run's result: counts
// from the telemetry deltas normalized per completed op, plus two time
// shares every workload has. A layer the workload never reaches counts 0.
var layerMetrics = []layerMetric{
	{"core.post.retry_per_op", "1/op"}, {"core.progress.calls_per_op", "1/op"},
	{"core.progress.empty_frac", "ratio"}, {"core.am.fires_per_op", "1/op"}, {"core.am.drops", "count"},
	{"core.rdv.rts_per_xfer", "1/op"}, {"core.rdv.retransmits", "count"},
	{"packet.gets_per_op", "1/op"}, {"packet.steal_frac", "ratio"}, {"packet.exhausted", "count"},
	{"matching.unexpected_frac", "ratio"}, {"comp.cq.empty_frac", "ratio"},
	{"coll.test.calls_per_op", "1/op"}, {"backlog.parks_per_op", "1/op"},
	{"fabric.msgs_per_op", "1/op"}, {"fabric.bytes_per_op", "B/op"}, {"fabric.rnr", "count"},
	{"netsim.txfull_per_post", "ratio"}, {"netsim.model_ns_frac", "ratio"},
	{"agg.records_per_flush", "1/op"}, {"agg.busy_per_append", "ratio"}, {"agg.flush_size_frac", "ratio"},
	{"go.alloc_bytes_per_op", "B/op"}, {"go.mallocs_per_op", "1/op"}, {"go.gc_cycles", "count"},
	{"trace.overhead_frac", "ratio"},
}

// callSiteMetrics are the span timings at the benchmark's call sites. They
// exist only where the workload makes the call, so they are printed, not
// part of the result.
var callSiteMetrics = []layerMetric{
	{"core.post.ns_p50", "ns"}, {"core.post.busy_frac", "ratio"},
	{"core.progress.ns_p50", "ns"}, {"core.progress.busy_frac", "ratio"},
	{"core.am.deliver_ns_p50", "ns"}, {"core.am.handler_ns_p50", "ns"},
	{"comp.cq.pop_ns_p50", "ns"}, {"coll.start_ns_p50", "ns"}, {"coll.test.busy_frac", "ratio"},
	{"agg.append_ns_p50", "ns"}, {"agg.poll.busy_frac", "ratio"},
}

// p50 is the median of a span name's sampled durations.
func p50(s *nameStats) float64 {
	res := slices.Clone(s.res)
	slices.Sort(res)
	v, _ := percentile(res, 0.5)
	return float64(v)
}

// perLayer computes a traced phase's per-layer metrics from the telemetry
// deltas and the call sites' span statistics. Busy fractions are shares
// of the workers' time; a call site the workload never calls is absent.
func perLayer(p *phase, t layerTotals, plat lci.Platform) map[string]float64 {
	var st [numSpanNames]nameStats
	var deliver nameStats
	for _, tr := range append(p.tr[:], p.rankTr...) {
		for i := range st {
			st[i].merge(&tr.stats[i])
		}
		deliver.merge(&tr.deliver)
	}
	ops := p.opsDone()
	var retries, xfers int64
	for _, l := range p.logs {
		retries += l.retries
		xfers += l.xfers
	}
	o := float64(ops)
	wall := float64(workers) * p.elapsed() * 1e9 // worker time, ns
	m := perOpCounts(t, ops, xfers)
	prog, hand, pop, test := &st[spProgress], &st[spHandler], &st[spCQPop], &st[spCollTest]
	m["core.post.retry_per_op"] = frac(float64(retries), o)
	m["core.progress.empty_frac"] = frac(float64(prog.empty), float64(prog.calls))
	m["core.progress.calls_per_op"] = frac(float64(prog.calls), o)
	m["comp.cq.empty_frac"] = frac(float64(pop.empty), float64(pop.calls))
	m["coll.test.calls_per_op"] = frac(float64(test.calls), o)
	m["netsim.model_ns_frac"] = frac(modelNs(t, plat), wall)
	timed := func(name string, s *nameStats, v float64) {
		if s.calls > 0 {
			m[name] = v
		}
	}
	timed("core.post.ns_p50", &st[spPost], p50(&st[spPost]))
	timed("core.post.busy_frac", &st[spPost], float64(st[spPost].totalNs)/wall)
	timed("core.progress.ns_p50", prog, p50(prog))
	// Handlers run inside progress calls: progress busy time is self time.
	timed("core.progress.busy_frac", prog, float64(prog.totalNs-hand.totalNs)/wall)
	timed("core.am.deliver_ns_p50", &deliver, p50(&deliver))
	timed("core.am.handler_ns_p50", hand, p50(hand))
	timed("comp.cq.pop_ns_p50", pop, p50(pop))
	timed("coll.start_ns_p50", &st[spCollStart], p50(&st[spCollStart]))
	timed("coll.test.busy_frac", test, float64(test.totalNs)/wall)
	timed("agg.append_ns_p50", &st[spAggAppend], p50(&st[spAggAppend])/aggBatch)
	timed("agg.poll.busy_frac", &st[spAggPoll], float64(st[spAggPoll].totalNs)/wall)
	return m
}

// reportSpans merges the traced phase's stored spans, prints each span
// name's self-time share and writes the spans out.
func reportSpans(s spec, seed uint64, p *phase) error {
	spans := mergeSpans(append(p.tr[:], p.rankTr...))
	self := selfTimes(spans)
	var byName [numSpanNames]int64
	var all int64
	for i, sp := range spans {
		byName[sp.name] += self[i]
		all += self[i]
	}
	fmt.Printf("spans: %d stored; self time by call site:\n", len(spans))
	for n, v := range byName {
		if v > 0 {
			fmt.Printf("  %-16s %10.3f ms %6.1f%%\n", spanNames[n], float64(v)/1e6, 100*frac(float64(v), float64(all)))
		}
	}
	path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.tsv", s.name, seed))
	if err := writeSpans(path, spans, self); err != nil {
		return err
	}
	fmt.Printf("spans written to %s\n", path)
	return nil
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
