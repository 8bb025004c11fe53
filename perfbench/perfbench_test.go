package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/rng"
	"repro/internal/server"
)

// TestEveryMetricPrints runs the shortest run of every workload (the
// minUnits leading units), untraced and traced, and requires every
// defined metric with its unit, correct outputs, and the JSON shape the
// result line must have.
func TestEveryMetricPrints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			o := runOptions{seed: 7, timed: time.Millisecond, trace: traced, dir: t.TempDir(), started: time.Now()}
			res, _, err := execute(context.Background(), name, workloads[name], o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if len(res.errs) > 0 {
				t.Errorf("%s trace=%v: checks failed: %v", name, traced, res.errs)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			line, err := json.Marshal(res.line())
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]metricValue
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, got.Correct, got.Attempted, got.Failed)
			}
			if len(got.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(got.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := got.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, traced, d.name, m, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %v", name, d.name, m.Value)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the
// metrics and workloads the program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program runs %s", got, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestTamperedLabelFailsReplay(t *testing.T) {
	ctx := context.Background()
	p, err := bench.ByName(fleetProblem)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := p.Space().SampleConfigs(rng.New(3), 20)
	ev := bench.Evaluator(p, rng.New(9))
	ys := make([]float64, len(cfgs))
	for i, c := range cfgs {
		if ys[i], err = ev.Evaluate(ctx, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkReplay(ctx, p, 9, cfgs, ys); err != nil {
		t.Fatalf("honest labels: %v", err)
	}
	ys[11] *= 1 + 1e-15
	if err := checkReplay(ctx, p, 9, cfgs, ys); err == nil {
		t.Fatal("a flipped label passed the replay check")
	}
}

func TestTamperedDigestFails(t *testing.T) {
	var pinned map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &pinned); err != nil {
		t.Fatal(err)
	}
	const unpinned = 1 << 40
	for _, name := range workloadNames() {
		d, ok := pinned[name]["1"]
		if !ok {
			t.Fatalf("no pinned digest for %s seed 1", name)
		}
		if err := checkDigest(name, 1, d); err != nil {
			t.Errorf("%s: pinned digest rejected: %v", name, err)
		}
		altered := []byte(d)
		altered[0] ^= 1
		if err := checkDigest(name, 1, string(altered)); err == nil {
			t.Errorf("%s: altered digest accepted", name)
		}
		if err := checkDigest(name, unpinned, string(altered)); err != nil {
			t.Errorf("%s: digest checked for a seed that pins none: %v", name, err)
		}
	}
}

func TestRepeatedIndexFailsTaken(t *testing.T) {
	if err := checkTaken([]int{1, 5, 9}, 3); err != nil {
		t.Fatal(err)
	}
	for _, taken := range [][]int{{1, 5, 5}, {1, 5}, {5, 1, 9}} {
		if err := checkTaken(taken, 3); err == nil {
			t.Errorf("taken %v passed", taken)
		}
	}
}

func TestServerCountMismatchFails(t *testing.T) {
	before := server.Stats{Asks: 5, Tells: 4, Labels: 40}
	after := server.Stats{Asks: 16, Tells: 14, Labels: 100}
	if err := checkServerCounts(before, after, 11, 10, 60); err != nil {
		t.Fatal(err)
	}
	if err := checkServerCounts(before, after, 11, 10, 59); err == nil {
		t.Fatal("a label count mismatch passed")
	}
}

func TestFleetStatsFail(t *testing.T) {
	before := fleet.Stats{Submitted: 3, Completed: 3}
	if err := checkFleetStats(before, fleet.Stats{Submitted: 10, Completed: 10}); err != nil {
		t.Fatal(err)
	}
	for _, after := range []fleet.Stats{
		{Submitted: 10, Completed: 9},
		{Submitted: 10, Completed: 10, Corrupt: 1},
		{Submitted: 10, Completed: 10, Failed: 1},
	} {
		if err := checkFleetStats(before, after); err == nil {
			t.Errorf("%+v passed", after)
		}
	}
}

func TestCampaignCheck(t *testing.T) {
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	sc := experiment.Quick()
	camp := experiment.Campaign{Items: []experiment.CampaignItem{{Problem: p, Scale: sc}}, Strategies: []string{"PWU", "Random"}}
	curve := func(strategy string) *experiment.CurveSet {
		return &experiment.CurveSet{
			Benchmark: "atax", Strategy: strategy, Reps: sc.Reps,
			Samples: []int{sc.NInit, sc.NMax}, RMSE: []float64{0.3, 0.2}, CC: []float64{1, 2},
		}
	}
	good := func() *experiment.CampaignResult {
		return &experiment.CampaignResult{Curves: map[string][]*experiment.CurveSet{"atax": {curve("PWU"), curve("Random")}}}
	}
	if cells, err := checkCampaign(good(), camp, sc); err != nil || cells != 2*sc.Reps {
		t.Fatalf("good campaign: cells=%d err=%v", cells, err)
	}
	tamper := map[string]func(r *experiment.CampaignResult){
		"quarantined": func(r *experiment.CampaignResult) {
			r.Quarantined = []experiment.QuarantinedTask{{Problem: "atax", Strategy: "PWU"}}
		},
		"missing rep":        func(r *experiment.CampaignResult) { r.Curves["atax"][1].Reps-- },
		"missing checkpoint": func(r *experiment.CampaignResult) { r.Curves["atax"][0].Samples = []int{sc.NInit} },
		"missing curve":      func(r *experiment.CampaignResult) { r.Curves["atax"][0] = nil },
	}
	for name, f := range tamper {
		r := good()
		f(r)
		if _, err := checkCampaign(r, camp, sc); err == nil {
			t.Errorf("%s: passed", name)
		}
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "campaign", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "forest", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "forest", Start: 30, End: 60},  // overlaps 2
		{ID: 4, Parent: 1, Layer: "forest", Start: 90, End: 120}, // runs past its parent
	}
	got := selfTimes(spans)
	if c := got["campaign"]; c.Calls != 1 || c.Self != 40 {
		t.Errorf("campaign %+v, want 1 call with self 40", c)
	}
	if f := got["forest"]; f.Calls != 3 || f.Self != 90 {
		t.Errorf("forest %+v, want 3 calls with self 90", f)
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 150)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := tail(xs); p != 90 || v != 135 {
		t.Errorf("tail of 150 = p%v %v, want p90 135", p, v)
	}
	if _, p := tail(xs[:30]); p != 60 {
		t.Errorf("tail of 30 at p%v, want p60", p)
	}
	// A slow tail on 7% of 1000 iterations (every 14th) must move the
	// tail, which is p95 over all the samples.
	fast := make([]float64, 1000)
	for i := range fast {
		fast[i] = 1 + float64(i%10)/100
	}
	slow := append([]float64(nil), fast...)
	for i := 0; i < len(slow); i += 14 {
		slow[i] = 5
	}
	vf, pf := tail(fast)
	vs, ps := tail(slow)
	if pf != 95 || ps != 95 || vs < 2*vf {
		t.Errorf("tail without the slow 7%% = p%v %v, with it p%v %v; want p95 moved at least 2x", pf, vf, ps, vs)
	}
}

// TestTunedNon2xxCountsAsFailed puts a proxy that answers every third
// ask 503 between the clients and the service: the refused asks count
// as failed operations, the sessions still finish on their pinned
// trajectory, and ok_frac drops below 1.
func TestTunedNon2xxCountsAsFailed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs tuned sessions")
	}
	ctx := context.Background()
	w := &tunedHTTP{}
	if err := w.setup(ctx, runOptions{seed: 1, dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	target, err := url.Parse(w.base)
	if err != nil {
		t.Fatal(err)
	}
	forward := httputil.NewSingleHostReverseProxy(target)
	var asks, refused atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/ask") && asks.Add(1)%3 == 0 {
			refused.Add(1)
			http.Error(rw, "injected", http.StatusServiceUnavailable)
			return
		}
		forward.ServeHTTP(rw, r)
	}))
	defer proxy.Close()
	w.base = proxy.URL

	ph := newPhase()
	if err := w.run(ctx, time.Millisecond, nil, ph); err != nil {
		t.Fatal(err)
	}
	if len(ph.errs) > 0 {
		t.Fatalf("checks failed: %v", ph.errs)
	}
	if err := checkDigest("tuned-http", 1, ph.digest()); err != nil {
		t.Error(err)
	}
	if n := refused.Load(); n == 0 || int64(ph.failed) != n {
		t.Errorf("failed = %d, proxy refused %d asks", ph.failed, n)
	}
	if ok := endToEndMetrics(ph, setupTimes{cpu: []float64{1}})["ok_frac"]; ok >= 1 {
		t.Errorf("ok_frac = %v with %d of %d operations failed", ok, ph.failed, ph.attempted)
	}
}

// panickyRunner panics on the chosen RunEval calls (1-based) once armed.
type panickyRunner struct {
	fleet.Runner
	armed atomic.Bool
	calls atomic.Int64
	on    map[int64]bool
}

func (r *panickyRunner) RunEval(ctx context.Context, t *fleet.EvalTask) *fleet.EvalResult {
	if r.armed.Load() && r.on[r.calls.Add(1)] {
		panic("injected")
	}
	return r.Runner.RunEval(ctx, t)
}

// TestFleetRequeueCountsAsFailed makes a worker fail two evaluation
// tasks once each: the coordinator requeues them, the labels still
// replay bit-identically, and each requeue is a failed operation.
func TestFleetRequeueCountsAsFailed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fleet sessions")
	}
	ctx := context.Background()
	r := &panickyRunner{Runner: experiment.NewFleetRunner(), on: map[int64]bool{3: true, 8: true}}
	w := &fleetRemote{inner: r}
	if err := w.setup(ctx, runOptions{seed: 1, dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	r.armed.Store(true)
	ph := newPhase()
	if err := w.run(ctx, time.Millisecond, nil, ph); err != nil {
		t.Fatal(err)
	}
	if len(ph.errs) > 0 {
		t.Fatalf("checks failed: %v", ph.errs)
	}
	if err := checkDigest("fleet-remote", 1, ph.digest()); err != nil {
		t.Error(err)
	}
	if got := w.stats[1].Requeues - w.stats[0].Requeues; got != 2 || ph.failed != 2 {
		t.Errorf("requeues = %d, failed = %d; want 2 and 2", got, ph.failed)
	}
	if ok := endToEndMetrics(ph, setupTimes{cpu: []float64{1}})["ok_frac"]; ok >= 1 {
		t.Errorf("ok_frac = %v with %d of %d operations failed", ok, ph.failed, ph.attempted)
	}
}

// TestIterClockCountsWithinCell feeds the training-set sizes of two
// cells' fits: an iteration is counted from each fit to the next on a
// grown set, never across the start of a new cell.
func TestIterClockCountsWithinCell(t *testing.T) {
	ph := newPhase()
	c := iterClock{rows: 160} // the previous phase's last cell
	c.ph = ph
	for _, rows := range []int{10, 15, 20, 25, 10, 15, 15} {
		c.fit(rows)
	}
	if len(ph.iter) != 4 || len(ph.iterCPU) != 4 {
		t.Errorf("%d wall and %d CPU iterations, want 4 and 4", len(ph.iter), len(ph.iterCPU))
	}
}

// TestCPUTimeCountsWork requires the process CPU time to grow by about
// the length of a busy loop.
func TestCPUTimeCountsWork(t *testing.T) {
	sw := startWatch()
	x := 1.0
	for time.Since(sw.wall) < 100*time.Millisecond {
		x = x*1.0000001 + 1e-9
	}
	wall, cpu := sw.elapsed()
	if cpu < wall/2 || cpu > 2*wall || x == 0 {
		t.Errorf("a %v busy loop took %v of CPU time", wall, cpu)
	}
}

// TestScaledCPUUsesNearbySlices builds a phase whose host halves its
// speed midway: slices take 5 ms, then 10 ms, and iterations of equal
// work take 20 ms, then 40 ms. Scaled, every iteration reads the same,
// and so does every segment of the phase's CPU time.
func TestScaledCPUUsesNearbySlices(t *testing.T) {
	p := &phase{}
	for k := 0; k < 10; k++ {
		p.refMS = append(p.refMS, 5)
	}
	for k := 0; k < 10; k++ {
		p.iterCPU, p.iterRef = append(p.iterCPU, 20), append(p.iterRef, k)
	}
	for k := 0; k < 10; k++ {
		p.refMS = append(p.refMS, 10)
	}
	for k := 10; k < 20; k++ {
		p.iterCPU, p.iterRef = append(p.iterCPU, 40), append(p.iterRef, k+3)
	}
	for j, v := range p.scaled(p.iterCPU, p.iterRef) {
		if v != 20 {
			t.Errorf("iteration %d scaled to %v ms, want 20", j, v)
		}
	}
	p.segCPU, p.segRef = []float64{100, 200}, []int{5, 18}
	if got := p.scaledCPU(); got != 200*time.Millisecond {
		t.Errorf("scaled phase CPU %v, want 200ms", got)
	}
}

// TestReferenceSliceAllocatesNothing keeps the slice from starting
// garbage collections that would land in the program's time.
func TestReferenceSliceAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(3, func() { reference.run() }); n != 0 {
		t.Errorf("a reference slice allocates %v times", n)
	}
	a, b := reference.run(), reference.run()
	if a != b {
		t.Errorf("the reference slice is not the same work every time: %v then %v", a, b)
	}
}
