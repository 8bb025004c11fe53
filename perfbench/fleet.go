package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/forest"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/runstate"
	"repro/internal/space"
)

// Fleet-remote settings: batch size 1, so every label is one
// submit/lease/complete round trip, with a small pool and forest so the
// round trip dominates.
const (
	fleetProblem = "atax"
	fleetWorkers = 1
	fleetPool    = 1000
	fleetNInit   = 10
	fleetNBatch  = 1
	fleetNMax    = 40
	fleetTrees   = 16
	// fleetPoll is the idle lease-poll interval advertised to workers:
	// the 2 ms of the repository's own fleet benchmark
	// (BenchmarkCampaignFig2Fleet in campaign_bench_test.go). The
	// coordinator's 200 ms default, which cmd/fleetd and the -remote
	// flags of tune and figures run with, would make a batch-1 label
	// mostly poll sleep and hide the lease and journal work.
	fleetPoll = 2 * time.Millisecond
	// journalRecordsPerTask are the fsync'd records one evaluation task
	// writes: submit, lease, complete and release.
	journalRecordsPerTask = 4
)

// fleetRemote runs one journaled coordinator (fleet.Open with Journal)
// and one fleet.Worker with the standard runner over loopback HTTP. A
// streamed PWU session with batch size 1 gets every label through a
// fleet.RemoteEvaluator. A unit is one session.
type fleetRemote struct {
	seed    uint64
	p       bench.Problem
	src     *pool.Uniform
	test    *testSet
	fits    *fitRecorder
	dir     string
	journal string
	coord   *fleet.Coordinator
	srv     *http.Server
	served  chan struct{}
	stop    context.CancelFunc
	workers sync.WaitGroup
	runner  *timedRunner
	// inner is the workers' runner; nil means experiment.NewFleetRunner.
	inner fleet.Runner

	leases       atomic.Int64
	leasedAt     atomic.Int64 // UnixNano of the latest lease grant
	leaseJournal atomic.Int64 // journal bytes summed over lease-time samples
	sampleLease  atomic.Bool

	runStats  core.RunStats // engine telemetry summed over the phase
	last      core.Model    // the phase's last final model
	askMS     []float64
	tellMS    []float64
	waitMS    []float64
	toLease   []float64 // ms from submission to the lease grant
	fromLease []float64 // ms from the lease grant to the labels, less run time
	candidate int
	stats     [2]fleet.Stats
	leased    [2]int64
}

// fleetSession is a finished session with the configurations it had
// labelled and the labels the fleet returned.
type fleetSession struct {
	sess    *core.Session
	configs []space.Config
	ys      []float64
}

// timedRunner wraps the workers' runner to time each evaluation task,
// so label latency splits into worker run time and fleet wait.
type timedRunner struct {
	inner  fleet.Runner
	tr     atomic.Pointer[tracer]
	parent atomic.Int32
	lastNS atomic.Int64
}

func (r *timedRunner) RunCell(ctx context.Context, t *fleet.CellTask) *fleet.CellResult {
	return r.inner.RunCell(ctx, t)
}

func (r *timedRunner) RunEval(ctx context.Context, t *fleet.EvalTask) *fleet.EvalResult {
	tr := r.tr.Load()
	id := tr.begin(r.parent.Load(), "bench", "fleet.Runner.RunEval")
	start := time.Now()
	res := r.inner.RunEval(ctx, t)
	r.lastNS.Store(int64(time.Since(start)))
	tr.end(id)
	return res
}

func (w *fleetRemote) setup(ctx context.Context, o runOptions) error {
	w.seed = o.seed
	p, err := bench.ByName(fleetProblem)
	if err != nil {
		return err
	}
	w.p = p
	w.src = pool.NewUniform(p.Space(), rng.Mix(o.seed, 1<<40), fleetPool)
	if w.test, err = newTestSet(ctx, p, rng.Mix(o.seed, 1<<41)); err != nil {
		return err
	}
	w.fits = newFitRecorder(forest.Config{NumTrees: fleetTrees}, nil)
	if w.dir, err = os.MkdirTemp(o.dir, "fleet-"); err != nil {
		return err
	}
	w.journal = filepath.Join(w.dir, "journal")
	if w.coord, err = fleet.Open(fleet.Config{Journal: w.journal, Poll: fleetPoll}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = &http.Server{Handler: w.coord.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.srv.Serve(ln)
	}()
	if w.inner == nil {
		w.inner = experiment.NewFleetRunner()
	}
	w.runner = &timedRunner{inner: w.inner}
	wctx, stop := context.WithCancel(context.Background())
	w.stop = stop
	for k := 0; k < fleetWorkers; k++ {
		wk := &fleet.Worker{
			Coordinator: "http://" + ln.Addr().String(),
			Name:        fmt.Sprintf("perfbench-%d", k),
			Runner:      w.runner,
			OnLease:     w.onLease,
		}
		w.workers.Add(1)
		go func() {
			defer w.workers.Done()
			_ = wk.Run(wctx)
		}()
	}
	registered := time.Now()
	for w.coord.Stats().Workers < fleetWorkers {
		if time.Since(registered) > 30*time.Second {
			return fmt.Errorf("%d of %d workers registered", w.coord.Stats().Workers, fleetWorkers)
		}
		time.Sleep(fleetPoll)
	}
	// Warm-up: one session.
	_, err = w.session(ctx, math.MaxUint32, nil, newPhase())
	return err
}

// onLease counts leases granted, stamps the latest grant and, in a
// traced phase, samples the journal's size while the task is leased
// (its submit and lease records written).
func (w *fleetRemote) onLease(string) {
	w.leasedAt.Store(time.Now().UnixNano())
	w.leases.Add(1)
	if w.sampleLease.Load() {
		w.leaseJournal.Add(dirBytes(w.journal, ".wal"))
	}
}

func (w *fleetRemote) close() {
	if w.stop != nil {
		w.stop()
		w.workers.Wait()
	}
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = w.srv.Shutdown(ctx)
		cancel()
		<-w.served
	}
	if w.coord != nil {
		w.coord.Close()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// session runs unit i to NMax labels, every batch labelled through the
// fleet.
func (w *fleetRemote) session(ctx context.Context, i uint64, tr *tracer, ph *phase) (*fleetSession, error) {
	rem, err := fleet.NewRemoteEvaluator(w.coord, w.p.Name(), bench.Evaluator(w.p, rng.New(w.evalSeed(i))))
	if err != nil {
		return nil, err
	}
	sess, err := core.NewSession(core.SessionConfig{
		Source:   w.src,
		Strategy: core.PWU{Alpha: alpha},
		Params: core.Params{
			NInit: fleetNInit, NBatch: fleetNBatch, NMax: fleetNMax,
			Forest: forest.Config{NumTrees: fleetTrees}, Fitter: w.fits.fit,
		},
		RNG:       rng.New(rng.Mix(w.seed, i)),
		Evaluator: rem,
	})
	if err != nil {
		return nil, err
	}
	fs := &fleetSession{sess: sess}
	id := tr.begin(0, "core", "core.Session.Ask")
	cfgs, err := sess.Ask(ctx)
	tr.end(id)
	for err == nil {
		id := tr.begin(0, "fleet", "fleet.RemoteEvaluator.EvaluateBatch")
		w.runner.parent.Store(id)
		start := time.Now()
		labels, lerr := rem.EvaluateBatch(ctx, cfgs)
		d := time.Since(start)
		tr.end(id)
		ph.op(lerr == nil)
		if lerr != nil {
			return nil, lerr
		}
		ph.addLabel(d)
		run := time.Duration(w.runner.lastNS.Load())
		leased := time.Unix(0, w.leasedAt.Load())
		w.waitMS = append(w.waitMS, ms(d-run))
		w.toLease = append(w.toLease, ms(leased.Sub(start)))
		w.fromLease = append(w.fromLease, ms(start.Add(d).Sub(leased)-run))
		for k, c := range cfgs {
			fs.configs = append(fs.configs, append(space.Config(nil), c...))
			fs.ys = append(fs.ys, labels[k].Y)
		}
		sw := startWatch()
		id = tr.begin(0, "core", "core.Session.Tell")
		w.fits.parent.Store(id)
		_, err = sess.Tell(ctx, labels)
		tr.end(id)
		told := time.Now()
		if err != nil {
			break
		}
		ph.accept(len(labels))
		if sess.Done() {
			break
		}
		id = tr.begin(0, "core", "core.Session.Ask")
		cfgs, err = sess.Ask(ctx)
		tr.end(id)
		wall, cpu := sw.elapsed()
		asked := time.Now()
		if err != nil {
			break
		}
		ph.addIter(wall, cpu)
		w.tellMS = append(w.tellMS, ms(told.Sub(sw.wall)))
		w.askMS = append(w.askMS, ms(asked.Sub(told)))
		w.candidate += fleetPool - sess.Samples()
	}
	if err != nil && !errors.Is(err, core.ErrSessionDone) {
		return nil, err
	}
	return fs, nil
}

func (w *fleetRemote) run(ctx context.Context, d time.Duration, tr *tracer, ph *phase) error {
	w.fits.tr = tr
	w.runner.tr.Store(tr)
	w.sampleLease.Store(tr != nil)
	w.leaseJournal.Store(0)
	w.runStats, w.last, w.candidate = core.RunStats{}, nil, 0
	w.askMS, w.tellMS, w.waitMS, w.toLease, w.fromLease = nil, nil, nil, nil, nil
	w.stats[0], w.leased[0] = w.coord.Stats(), w.leases.Load()
	start := time.Now()
	for i := 0; i < minUnits || time.Since(start) < d; i++ {
		fs, err := w.session(ctx, uint64(i), tr, ph)
		if err != nil {
			return fmt.Errorf("session %d: %w", i, err)
		}
		if fs.sess.Samples() != fleetNMax {
			ph.fail("session %d: %d labels, want %d", i, fs.sess.Samples(), fleetNMax)
		}
		if err := checkReplay(ctx, w.p, w.evalSeed(uint64(i)), fs.configs, fs.ys); err != nil {
			ph.fail("session %d: %v", i, err)
		}
		if i < minUnits {
			snap, err := fs.sess.Snapshot()
			if err != nil {
				return fmt.Errorf("session %d snapshot: %w", i, err)
			}
			ph.unit(i, sessionDigest(snap.Taken, snap.TrainY), w.test.rmse(fs.sess.Model()))
		}
		addRunStats(&w.runStats, fs.sess.Result().Telemetry())
		w.last = fs.sess.Model()
	}
	ph.finish()
	w.stats[1], w.leased[1] = w.coord.Stats(), w.leases.Load()
	// A requeued task is a failed attempt at labelling its batch.
	requeues := int(w.stats[1].Requeues - w.stats[0].Requeues)
	ph.ops(requeues, requeues)
	if err := checkFleetStats(w.stats[0], w.stats[1]); err != nil {
		ph.fail("%v", err)
	}
	return nil
}

// evalSeed seeds unit i's evaluator.
func (w *fleetRemote) evalSeed(i uint64) uint64 { return rng.Mix(w.seed^0x5eed, i) }

// checkReplay measures configs through a local evaluator seeded like
// the session's and requires labels bit-identical to the fleet's.
func checkReplay(ctx context.Context, p bench.Problem, seed uint64, configs []space.Config, ys []float64) error {
	ev := bench.Evaluator(p, rng.New(seed))
	for k, c := range configs {
		y, err := ev.Evaluate(ctx, c)
		if err != nil {
			return err
		}
		if math.Float64bits(y) != math.Float64bits(ys[k]) {
			return fmt.Errorf("label %d: fleet returned %v, local replay %v", k, ys[k], y)
		}
	}
	return nil
}

// checkFleetStats requires every task submitted during the phase to
// complete, with nothing corrupt or failed.
func checkFleetStats(before, after fleet.Stats) error {
	sub, done := after.Submitted-before.Submitted, after.Completed-before.Completed
	corrupt, failed := after.Corrupt-before.Corrupt, after.Failed-before.Failed
	if sub != done || corrupt != 0 || failed != 0 {
		return fmt.Errorf("fleet submitted %d tasks, completed %d, corrupt %d, failed %d", sub, done, corrupt, failed)
	}
	return nil
}

// dirBytes sums the sizes of dir's files with the given suffix.
func dirBytes(dir, suffix string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), suffix) {
			continue
		}
		if fi, err := e.Info(); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// appendReplay appends n records of the given payload size to a fresh
// log in dir and returns the median µs per Append (write + fsync).
func appendReplay(dir string, size, n int) (float64, error) {
	log, err := runstate.OpenAppendLog(filepath.Join(dir, "replay.wal"))
	if err != nil {
		return 0, err
	}
	defer log.Close()
	payload := []byte(`{"op":"` + strings.Repeat("x", max(size-10, 1)) + `"}`)
	var us []float64
	for k := 0; k < n; k++ {
		start := time.Now()
		if err := log.Append(payload); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return median(us), nil
}

func (w *fleetRemote) layers(ctx context.Context, ph *phase, out metricSet) error {
	st := w.runStats
	engineShares(st, out)
	out["core.ask_ms_p50"] = median(w.askMS)
	out["core.tell_ms_p50"] = median(w.tellMS)
	w.fits.report(out)
	out["pool.candidates_scored"] = float64(w.candidate)
	if w.candidate > 0 {
		out["pool.scan_ns_per_candidate"] = float64(st.SelectTime.Nanoseconds()) / float64(w.candidate)
	}
	f, _ := w.last.(*forest.Forest)
	out["forest.score_ns_per_candidate"] = scoreReplay(f, w.p.Space(), w.seed)
	out["bench.eval_us"] = evalReplay(ctx, w.p, w.seed)

	a, b := w.stats[0], w.stats[1]
	tasks := b.Submitted - a.Submitted
	leased := w.leased[1] - w.leased[0]
	out["fleet.tasks"] = float64(tasks)
	out["fleet.requeues"] = float64(b.Requeues - a.Requeues)
	out["fleet.duplicates"] = float64(b.Duplicates - a.Duplicates)
	if leased > 0 {
		out["fleet.useful_ratio"] = float64(b.Completed-a.Completed) / float64(leased)
	}
	out["fleet.worker_busy_s"] = (b.Busy - a.Busy).Seconds()
	out["fleet.wait_ms_p50"] = median(w.waitMS)
	out["fleet.to_lease_ms_p50"] = median(w.toLease)
	out["fleet.from_lease_ms_p50"] = median(w.fromLease)
	out["fleet.label_ms_p50"] = median(ph.label)
	out["fleet.label_ms_tail"], _ = tail(ph.label)

	// Journal: bytes on disk while a task is leased (its submit and
	// lease records), and an Append replay at that record size. The
	// coordinator's own appends are not visible from outside, so
	// share.journal estimates them as four replayed appends per label.
	perTask := float64(w.leaseJournal.Load()) / float64(max(leased, 1))
	out["runstate.journal_bytes"] = perTask
	appendUS, err := appendReplay(w.dir, int(perTask/2), 50)
	if err != nil {
		return err
	}
	out["runstate.append_us_p50"] = appendUS
	if label := median(ph.label); label > 0 {
		out["share.journal"] = journalRecordsPerTask * appendUS / 1e3 / label
		out["share.to_lease"] = median(w.toLease) / label
		out["share.from_lease"] = median(w.fromLease) / label
	}
	return nil
}
