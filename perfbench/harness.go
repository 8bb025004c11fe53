package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// runOptions are the command-line arguments plus the run's scratch
// directory.
type runOptions struct {
	seed    uint64
	timed   time.Duration
	trace   bool
	dir     string
	started time.Time
}

// workload is one named benchmark workload. A fresh value is built for
// every set-up repetition.
type workload interface {
	// setup builds the inputs from the seed, starts any servers or
	// workers, and warms the path up.
	setup(ctx context.Context, o runOptions) error
	// run is the timed phase: units of work back to back until d has
	// elapsed and at least minUnits units are done. tr is nil when
	// untraced.
	run(ctx context.Context, d time.Duration, tr *tracer, ph *phase) error
	// layers fills the per-layer metrics of a traced phase, running any
	// replays it needs.
	layers(ctx context.Context, ph *phase, out metricSet) error
	// close stops everything setup started and waits for it.
	close()
}

// minUnits is how many leading units every run completes whatever its
// length: rmse_final and the trajectory digest come from exactly these,
// so both are fixed for a given seed.
const minUnits = 2

var workloads = map[string]func() workload{
	"campaign-fit": func() workload { return &campaignFit{} },
	"stream-scan":  func() workload { return &streamScan{} },
	"tuned-http":   func() workload { return &tunedHTTP{} },
	"fleet-remote": func() workload { return &fleetRemote{} },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// phase accumulates one timed phase. Its methods are safe for the
// concurrent goroutines of a workload.
type phase struct {
	mu        sync.Mutex
	start     time.Time
	cpuStart  time.Duration
	wall      time.Duration // less the slices', set by finish
	cpu       time.Duration // process CPU time less the slices', set by finish
	labels    int
	attempted int
	failed    int
	iter      []float64     // ms, tuner think time per iteration, wall clock
	iterCPU   []float64     // ms, the same iterations in process CPU time
	iterRef   []int         // slices run before each iteration ended
	segCPU    []float64     // ms, process CPU time between two slices
	segRef    []int         // slices run before each segment ended
	refMS     []float64     // ms, CPU time of each reference slice
	refCPU    time.Duration // process CPU time the slices took
	refWall   time.Duration // wall time the slices took
	lastRef   time.Duration // process CPU time when the last slice ended
	label     []float64     // ms, one batch labelled, wall clock
	unitRMSE  map[int]float64
	unitHash  map[int]uint64
	errs      []string
	memBefore runtime.MemStats
	memAfter  runtime.MemStats
}

func newPhase() *phase {
	cpu := cpuTime()
	return &phase{start: time.Now(), cpuStart: cpu, lastRef: cpu, unitRMSE: map[int]float64{}, unitHash: map[int]uint64{}}
}

// calibrate runs refNeighbours reference slices, so that the phase's
// first iterations have slices on both sides.
func (p *phase) calibrate() {
	for i := 0; i < refNeighbours; i++ {
		p.slice()
	}
}

// slice runs one reference slice and records it.
func (p *phase) slice() {
	start := time.Now()
	s, cpu := refSlice()
	p.mu.Lock()
	p.refMS = append(p.refMS, ms(s))
	p.refCPU += cpu
	p.refWall += time.Since(start)
	p.lastRef = cpuTime()
	p.mu.Unlock()
}

// maybeSlice runs a reference slice once the program has used refEvery
// of CPU time since the last one, and records that stretch as a
// segment. Workloads reach it between iterations, so no iteration's
// time includes a slice.
func (p *phase) maybeSlice() {
	p.mu.Lock()
	now := cpuTime()
	due := now-p.lastRef >= refEvery
	if due {
		p.segCPU = append(p.segCPU, ms(now-p.lastRef))
		p.segRef = append(p.segRef, len(p.refMS))
		p.lastRef = now
	}
	p.mu.Unlock()
	if due {
		p.slice()
	}
}

// finish ends the measured part of the phase, its last segment
// included: its wall time and the program's CPU time, both of which
// leave the reference slices out.
func (p *phase) finish() {
	p.mu.Lock()
	now := cpuTime()
	p.segCPU = append(p.segCPU, ms(now-p.lastRef))
	p.segRef = append(p.segRef, len(p.refMS))
	p.wall, p.cpu = time.Since(p.start)-p.refWall, now-p.cpuStart-p.refCPU
	p.mu.Unlock()
}

// scaledCPU is the phase's program CPU time at reference speed: every
// segment scaled by the slices around it.
func (p *phase) scaledCPU() time.Duration {
	var total float64
	for _, t := range p.scaled(p.segCPU, p.segRef) {
		total += t
	}
	return time.Duration(total * float64(time.Millisecond))
}

// scaled returns CPU times (ms) at reference speed, each scaled by the
// refNeighbours slices around it; at[j] is the number of slices run
// before xs[j] ended.
func (p *phase) scaled(xs []float64, at []int) []float64 {
	out := make([]float64, len(xs))
	for j, t := range xs {
		k := at[j]
		lo := min(max(k-refNeighbours/2, 0), max(len(p.refMS)-refNeighbours, 0))
		hi := min(lo+refNeighbours, len(p.refMS))
		out[j] = t * refScale(p.refMS[lo:hi])
	}
	return out
}

// accept records n labels accepted by the tuner.
func (p *phase) accept(n int) {
	p.mu.Lock()
	p.labels += n
	p.mu.Unlock()
}

func (p *phase) op(ok bool) {
	p.mu.Lock()
	p.attempted++
	if !ok {
		p.failed++
	}
	p.mu.Unlock()
}

// ops records attempted operations of which failed failed.
func (p *phase) ops(attempted, failed int) {
	p.mu.Lock()
	p.attempted += attempted
	p.failed += failed
	p.mu.Unlock()
}

// addIter records one iteration's wall and process CPU time, then runs
// a reference slice if one is due.
func (p *phase) addIter(wall, cpu time.Duration) {
	p.mu.Lock()
	p.iter = append(p.iter, ms(wall))
	p.iterCPU = append(p.iterCPU, ms(cpu))
	p.iterRef = append(p.iterRef, len(p.refMS))
	p.mu.Unlock()
	p.maybeSlice()
}

func (p *phase) addLabel(d time.Duration) {
	p.mu.Lock()
	p.label = append(p.label, ms(d))
	p.mu.Unlock()
}

// stopwatch times one stretch of work in wall and process CPU time.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime()} }

// elapsed returns the wall and CPU time since the watch started.
func (s stopwatch) elapsed() (time.Duration, time.Duration) {
	return time.Since(s.wall), cpuTime() - s.cpu
}

func (p *phase) fail(format string, args ...any) {
	p.mu.Lock()
	p.errs = append(p.errs, fmt.Sprintf(format, args...))
	p.mu.Unlock()
}

// unit records a leading unit's digest and final RMSE.
func (p *phase) unit(i int, digest uint64, rmse float64) {
	if i >= minUnits {
		return
	}
	p.mu.Lock()
	p.unitHash[i] = digest
	p.unitRMSE[i] = rmse
	p.mu.Unlock()
}

// digest combines the leading units' digests in unit order.
func (p *phase) digest() string {
	h := fnv.New64a()
	for i := 0; i < minUnits; i++ {
		fmt.Fprintf(h, "%d:%016x;", i, p.unitHash[i])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func (p *phase) rmse() float64 {
	var s float64
	for i := 0; i < minUnits; i++ {
		s += p.unitRMSE[i]
	}
	return s / minUnits
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the tuner sees, printed on every
// workload by the untraced run. Every time among them is CPU time of
// the benchmark process, which the host's contention (run-queue waits,
// hypervisor steal) does not add to; the wall-clock figures are
// per-layer wall.* metrics. failed_frac is carried as its complement
// ok_frac (and as the result's attempted/failed counts), because a
// metric must never read 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"labels_per_cpu_s", "labels/cpu_s"},
	{"iter_cpu_p50_ms", "ms"},
	{"iter_cpu_tail_ms", "ms"},
	{"ok_frac", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// run reads 0 there.
var perLayer = []metricDef{
	{"wall.labels_per_s", "labels/s"},
	{"wall.iter_p50_ms", "ms"},
	{"wall.iter_tail_ms", "ms"},
	{"wall.setup_s", "s"},
	{"ref.slice_ms", "ms"},
	{"ref.slices", "count"},
	{"core.fit_s", "s"},
	{"core.select_s", "s"},
	{"core.eval_s", "s"},
	{"core.ask_ms_p50", "ms"},
	{"core.tell_ms_p50", "ms"},
	{"forest.fit_calls", "count"},
	{"forest.fit_ms_p50", "ms"},
	{"forest.fit_rows_mean", "rows"},
	{"tree.fit_us_p50", "us"},
	{"pool.candidates_scored", "count"},
	{"pool.scan_ns_per_candidate", "ns"},
	{"forest.score_ns_per_candidate", "ns"},
	{"campaign.utilization", "ratio"},
	{"campaign.steals", "count"},
	{"campaign.busy_s", "s"},
	{"campaign.dataset_builds", "count"},
	{"campaign.dataset_hit_ratio", "ratio"},
	{"bench.eval_us", "us"},
	{"server.create_ms_p50", "ms"},
	{"server.ask_ms_p50", "ms"},
	{"server.ask_ms_tail", "ms"},
	{"server.tell_ms_p50", "ms"},
	{"server.tell_ms_tail", "ms"},
	{"server.requests", "count"},
	{"server.errors", "count"},
	{"server.useful_tell_ratio", "ratio"},
	{"runstate.save_ms_p50", "ms"},
	{"runstate.ckpt_bytes", "bytes"},
	{"runstate.append_us_p50", "us"},
	{"runstate.journal_bytes", "bytes"},
	{"fleet.tasks", "count"},
	{"fleet.requeues", "count"},
	{"fleet.duplicates", "count"},
	{"fleet.useful_ratio", "ratio"},
	{"fleet.worker_busy_s", "s"},
	{"fleet.wait_ms_p50", "ms"},
	{"fleet.to_lease_ms_p50", "ms"},
	{"fleet.from_lease_ms_p50", "ms"},
	{"fleet.label_ms_p50", "ms"},
	{"fleet.label_ms_tail", "ms"},
	{"go.alloc_bytes_per_label", "bytes"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"share.fit", "ratio"},
	{"share.select", "ratio"},
	{"share.eval", "ratio"},
	{"share.checkpoint", "ratio"},
	{"share.http", "ratio"},
	{"share.journal", "ratio"},
	{"share.to_lease", "ratio"},
	{"share.from_lease", "ratio"},
	{"quality.rmse_final", "s"},
	{"trace.spans", "count"},
	{"trace.overhead_pct", "%"},
	{"self_s.bench", "s"},
	{"self_s.campaign", "s"},
	{"self_s.core", "s"},
	{"self_s.fleet", "s"},
	{"self_s.forest", "s"},
	{"self_s.server", "s"},
	{"calls.bench", "count"},
	{"calls.campaign", "count"},
	{"calls.core", "count"},
	{"calls.fleet", "count"},
	{"calls.forest", "count"},
	{"calls.server", "count"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values; units come from the defs.
type metricSet map[string]float64

// result is what a run prints.
type result struct {
	attempted int
	failed    int
	metrics   map[string]metricValue
	notes     []string
	errs      []string
}

func (r *result) line() any {
	return struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(r.errs) == 0, r.attempted, r.failed, r.metrics}
}

// setupTimes are the CPU and wall seconds of each set-up repetition.
type setupTimes struct{ cpu, wall []float64 }

// execute sets the workload up setupReps times (keeping the last), runs
// the timed phase (two halves, untraced then traced, under --trace 1),
// checks the outputs and assembles the metrics.
func execute(ctx context.Context, name string, mk func() workload, o runOptions) (*result, *tracer, error) {
	var setups setupTimes
	var w workload
	for i := 0; i < setupReps; i++ {
		sw := startWatch()
		if i == 0 {
			// The first set-up is timed from process start.
			sw = stopwatch{o.started, 0}
		}
		w = mk()
		if err := w.setup(ctx, o); err != nil {
			w.close()
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		wall, cpu := sw.elapsed()
		// Slices after the set-up scale its CPU time.
		cal := &phase{}
		cal.calibrate()
		setups.wall = append(setups.wall, wall.Seconds())
		setups.cpu = append(setups.cpu, cpu.Seconds()*refScale(cal.refMS))
		if i < setupReps-1 {
			w.close()
		}
	}
	defer w.close()

	res := &result{}
	timedPhase := func(d time.Duration, tr *tracer) (*phase, error) {
		runtime.GC()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		host := cpuTimes()
		ph := newPhase()
		ph.calibrate()
		ph.start, ph.cpuStart, ph.refCPU, ph.refWall = time.Now(), cpuTime(), 0, 0
		ph.lastRef = ph.cpuStart
		ph.memBefore = mem
		if err := w.run(ctx, d, tr, ph); err != nil {
			return nil, err
		}
		res.notes = append(res.notes, hostNote(host, cpuTimes()))
		runtime.ReadMemStats(&ph.memAfter)
		res.attempted += ph.attempted
		res.failed += ph.failed
		res.errs = append(res.errs, ph.errs...)
		if ph.labels == 0 || len(ph.iter) == 0 || ph.cpu <= 0 {
			res.errs = append(res.errs, "timed phase recorded no labels, no iterations or no CPU time")
		}
		return ph, nil
	}

	if !o.trace {
		ph, err := timedPhase(o.timed, nil)
		if err != nil {
			return nil, nil, err
		}
		if err := checkDigest(name, o.seed, ph.digest()); err != nil {
			res.errs = append(res.errs, err.Error())
		}
		res.notes = append(res.notes, fmt.Sprintf("digest: %s", ph.digest()), fmt.Sprintf("rmse_final: %.6g s", ph.rmse()))
		res.notes = append(res.notes, wallNote(ph, setups))
		res.notes = append(res.notes, tailNotes(ph)...)
		res.metrics = withUnits(endToEndMetrics(ph, setups), endToEnd)
		return res, nil, nil
	}

	plain, err := timedPhase(o.timed/2, nil)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	traced, err := timedPhase(o.timed/2, tr)
	if err != nil {
		return nil, nil, err
	}
	if plain.digest() != traced.digest() {
		res.errs = append(res.errs, fmt.Sprintf("traced digest %s differs from untraced %s", traced.digest(), plain.digest()))
	}
	if err := checkDigest(name, o.seed, plain.digest()); err != nil {
		res.errs = append(res.errs, err.Error())
	}
	res.notes = append(res.notes, fmt.Sprintf("digest: %s", traced.digest()))
	set := metricSet{"quality.rmse_final": traced.rmse()}
	if err := w.layers(ctx, traced, set); err != nil {
		return nil, nil, fmt.Errorf("per-layer metrics: %w", err)
	}
	wallLayer(plain, setups, set)
	spans := tr.snapshot()
	set["trace.spans"] = float64(len(spans))
	lp, lt := plain.labelsPerCPUSecond(), traced.labelsPerCPUSecond()
	set["trace.overhead_pct"] = 100 * (lp - lt) / lp
	res.notes = append(res.notes, fmt.Sprintf("tracing overhead: untraced %.4g labels/cpu_s, traced %.4g labels/cpu_s", lp, lt))
	for layer, t := range selfTimes(spans) {
		set["self_s."+layer] = t.Self.Seconds()
		set["calls."+layer] = float64(t.Calls)
	}
	memLayer(traced, set)
	res.metrics = withUnits(set, perLayer)
	return res, tr, nil
}

// labelsPerCPUSecond is the labels accepted per second of the
// program's CPU time over the phase, at reference speed.
func (p *phase) labelsPerCPUSecond() float64 {
	return float64(p.labels) / p.scaledCPU().Seconds()
}

func endToEndMetrics(ph *phase, setups setupTimes) metricSet {
	iter := ph.scaled(ph.iterCPU, ph.iterRef)
	iterTail, _ := tail(iter)
	return metricSet{
		"setup_s":          median(setups.cpu),
		"labels_per_cpu_s": ph.labelsPerCPUSecond(),
		"iter_cpu_p50_ms":  median(iter),
		"iter_cpu_tail_ms": iterTail,
		"ok_frac":          1 - float64(ph.failed)/float64(max(ph.attempted, 1)),
		"peak_rss_mb":      peakRSSMB(),
	}
}

// wallLayer adds the wall-clock counterparts of the end-to-end metrics,
// the reference slices' CPU time and their share of the phase.
func wallLayer(ph *phase, setups setupTimes, set metricSet) {
	set["wall.labels_per_s"] = float64(ph.labels) / ph.wall.Seconds()
	set["wall.iter_p50_ms"] = median(ph.iter)
	set["wall.iter_tail_ms"], _ = tail(ph.iter)
	set["wall.setup_s"] = median(setups.wall)
	set["ref.slice_ms"] = median(ph.refMS)
	set["ref.slices"] = float64(len(ph.refMS))
}

// wallNote reports the untraced run's wall-clock and unscaled CPU
// figures, which the end-to-end metrics leave out.
func wallNote(ph *phase, setups setupTimes) string {
	set := metricSet{}
	wallLayer(ph, setups, set)
	return fmt.Sprintf("wall clock: %.4g labels/s, iter p50 %.4g ms, iter tail %.4g ms, setup %.4g s; "+
		"unscaled cpu: %.4g labels/cpu_s, iter p50 %.4g ms; %d reference slices, median %.4g ms",
		set["wall.labels_per_s"], set["wall.iter_p50_ms"], set["wall.iter_tail_ms"], set["wall.setup_s"],
		float64(ph.labels)/ph.cpu.Seconds(), median(ph.iterCPU), len(ph.refMS), median(ph.refMS))
}

func tailNotes(ph *phase) []string {
	_, p := tail(ph.iterCPU)
	return []string{fmt.Sprintf("iter_cpu_tail_ms is p%g of %d samples", p, len(ph.iterCPU))}
}

// memLayer adds the Go runtime metrics of a phase.
func memLayer(ph *phase, set metricSet) {
	a, b := &ph.memBefore, &ph.memAfter
	set["go.alloc_bytes_per_label"] = float64(b.TotalAlloc-a.TotalAlloc) / float64(max(ph.labels, 1))
	set["go.gc_cycles"] = float64(b.NumGC - a.NumGC)
	set["go.gc_pause_ms"] = float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6
}

// withUnits attaches units, filling every defined metric (0 where the
// workload does not run the layer) and dropping anything undefined.
func withUnits(set metricSet, defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := set[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

// digestsJSON pins the trajectory digest of each workload for a range
// of seeds, as {"workload": {"seed": "digest"}}: a change that alters a
// trajectory fails any run whose seed is pinned.
//
//go:embed digests.json
var digestsJSON []byte

func checkDigest(workload string, seed uint64, got string) error {
	var pinned map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &pinned); err != nil {
		return fmt.Errorf("digests.json: %v", err)
	}
	bySeed, ok := pinned[workload]
	if !ok {
		return fmt.Errorf("digests.json pins no digest for %s", workload)
	}
	want, ok := bySeed[strconv.FormatUint(seed, 10)]
	if ok && want != got {
		return fmt.Errorf("trajectory digest %s differs from the pinned %s for seed %d", got, want, seed)
	}
	return nil
}
