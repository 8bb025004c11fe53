package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/forest"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/space"
)

// Stream-scan settings: a big lazily generated pool, so each iteration's
// scan dominates, and a cold refit on a small labelled set.
const (
	streamProblem = "atax"
	streamPool    = 200_000
	streamNInit   = 10
	streamNBatch  = 10
	streamNMax    = 60
	streamTrees   = 32
	// testSize is the held-out set rmse_final is measured on.
	testSize = 500
	alpha    = 0.05
)

// testSet is a held-out set of configurations with measured labels.
type testSet struct {
	X [][]float64
	Y []float64
}

func newTestSet(ctx context.Context, p bench.Problem, seed uint64) (*testSet, error) {
	ds, err := dataset.Build(ctx, p, 1, testSize, rng.New(seed))
	if err != nil {
		return nil, err
	}
	return &testSet{X: ds.TestX(), Y: ds.TestY}, nil
}

// rmse is RMSE@α (paper Eq. 2) of model m on the test set.
func (t *testSet) rmse(m core.Model) float64 {
	mu, _ := m.PredictBatch(t.X)
	return metrics.RMSEAtAlpha(t.Y, mu, alpha)
}

// streamScan drives back-to-back PWU core.Sessions by Ask/Tell over a
// 200k-candidate pool.Uniform source, labelling every batch with the
// problem's evaluator in the benchmark's own goroutine. A unit is one
// session.
type streamScan struct {
	seed uint64
	p    bench.Problem
	src  *pool.Uniform
	test *testSet
	fits *fitRecorder

	stats     core.RunStats // engine telemetry summed over the phase
	last      core.Model    // the phase's last final model
	askMS     []float64
	tellMS    []float64
	candidate int
}

func (w *streamScan) params() core.Params {
	return core.Params{
		NInit: streamNInit, NBatch: streamNBatch, NMax: streamNMax,
		Forest: forest.Config{NumTrees: streamTrees},
		Fitter: w.fits.fit,
	}
}

func (w *streamScan) setup(ctx context.Context, o runOptions) error {
	w.seed = o.seed
	p, err := bench.ByName(streamProblem)
	if err != nil {
		return err
	}
	w.p = p
	w.src = pool.NewUniform(p.Space(), rng.Mix(o.seed, 1<<40), streamPool)
	if w.test, err = newTestSet(ctx, p, rng.Mix(o.seed, 1<<41)); err != nil {
		return err
	}
	w.fits = newFitRecorder(forest.Config{NumTrees: streamTrees}, nil)
	// Warm-up: a session with one loop iteration (one full scan).
	sess, err := w.newSession(math.MaxUint32, streamNInit+streamNBatch)
	if err != nil {
		return err
	}
	_, err = w.drive(ctx, sess, math.MaxUint32, nil, newPhase())
	return err
}

func (w *streamScan) close() {}

// newSession builds unit i's session; nMax overrides the label budget.
func (w *streamScan) newSession(i uint64, nMax int) (*core.Session, error) {
	params := w.params()
	params.NMax = nMax
	return core.NewSession(core.SessionConfig{
		Source:   w.src,
		Strategy: core.PWU{Alpha: alpha},
		Params:   params,
		RNG:      rng.New(rng.Mix(w.seed, i)),
	})
}

func (w *streamScan) evaluator(i uint64) *bench.NoisyEvaluator {
	return bench.Evaluator(w.p, rng.New(rng.Mix(w.seed^0x5eed, i)))
}

// drive runs one session to NMax: label the batch, Tell, Ask for the
// next. It returns the session's labelled-set size.
func (w *streamScan) drive(ctx context.Context, sess *core.Session, i uint64, tr *tracer, ph *phase) (int, error) {
	ev := w.evaluator(i)
	id := tr.begin(0, "core", "core.Session.Ask")
	cfgs, err := sess.Ask(ctx)
	tr.end(id)
	for err == nil {
		labels, lerr := labelBatch(ctx, ev, cfgs, tr, ph)
		if lerr != nil {
			return 0, lerr
		}
		sw := startWatch()
		id := tr.begin(0, "core", "core.Session.Tell")
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
		w.candidate += streamPool - sess.Samples()
	}
	if err != nil && !errors.Is(err, core.ErrSessionDone) {
		ph.op(false)
		return 0, err
	}
	return sess.Samples(), nil
}

// labelBatch measures cfgs in order with the benchmark's own
// evaluator, timing the batch as one label operation.
func labelBatch(ctx context.Context, ev core.Evaluator, cfgs []space.Config, tr *tracer, ph *phase) ([]core.Label, error) {
	id := tr.begin(0, "bench", "bench.Evaluate")
	start := time.Now()
	labels := make([]core.Label, len(cfgs))
	for k, c := range cfgs {
		y, err := ev.Evaluate(ctx, c)
		if err != nil {
			return nil, err
		}
		labels[k] = core.Label{Y: y}
	}
	ph.addLabel(time.Since(start))
	tr.end(id)
	return labels, nil
}

func (w *streamScan) run(ctx context.Context, d time.Duration, tr *tracer, ph *phase) error {
	w.fits.tr = tr
	w.stats, w.last, w.askMS, w.tellMS, w.candidate = core.RunStats{}, nil, nil, nil, 0
	start := time.Now()
	for i := 0; i < minUnits || time.Since(start) < d; i++ {
		sess, err := w.newSession(uint64(i), streamNMax)
		if err != nil {
			return err
		}
		n, err := w.drive(ctx, sess, uint64(i), tr, ph)
		if err != nil {
			return fmt.Errorf("session %d: %w", i, err)
		}
		ph.op(n == streamNMax)
		snap, err := sess.Snapshot()
		if err != nil {
			return fmt.Errorf("session %d snapshot: %w", i, err)
		}
		if err := checkTaken(snap.Taken, streamNMax); err != nil {
			ph.fail("session %d: %v", i, err)
		}
		if i < minUnits {
			ph.unit(i, sessionDigest(snap.Taken, snap.TrainY), w.test.rmse(sess.Model()))
		}
		addRunStats(&w.stats, sess.Result().Telemetry())
		w.last = sess.Model()
	}
	ph.finish()
	return nil
}

// checkTaken verifies a session took nMax distinct pool indices: the
// session keeps them as a sorted set, so a repeat shows as a short or
// unsorted list.
func checkTaken(taken []int, nMax int) error {
	if len(taken) != nMax {
		return fmt.Errorf("%d distinct indices taken, want %d (an index was selected twice)", len(taken), nMax)
	}
	for k := 1; k < len(taken); k++ {
		if taken[k] <= taken[k-1] {
			return fmt.Errorf("index %d selected twice", taken[k])
		}
	}
	return nil
}

// sessionDigest hashes a session's taken indices and labels.
func sessionDigest(taken []int, ys []float64) uint64 {
	h := fnv.New64a()
	for _, g := range taken {
		fmt.Fprintf(h, "%d,", g)
	}
	for _, y := range ys {
		fmt.Fprintf(h, "%x,", math.Float64bits(y))
	}
	return h.Sum64()
}

func (w *streamScan) layers(ctx context.Context, ph *phase, out metricSet) error {
	st := w.stats
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
	out["bench.eval_us"] = 1e3 * sumMS(ph.label) / float64(max(ph.labels, 1))
	return nil
}

func sumMS(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
